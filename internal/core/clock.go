package core

import (
	"sync"
	"time"
)

// Clock abstracts the time source used wherever the runtime time-stamps job
// lifecycles (the service layer's ticket transitions, open-loop harnesses).
// Production code runs on WallClock; the replay harness substitutes a
// VirtualClock so a week-long trace advances on simulated time — queue waits
// and ticket lifetimes are measured in trace hours, not wall seconds, and a
// 168-hour replay finishes in seconds of real time.
//
// Only bookkeeping time flows through a Clock. The simulated execution-time
// model (engine.CostModel, Metrics.Sim*NS) is priced from counted work and
// never reads any clock, and neither does System.Run: it admits arriving
// jobs on the controller's own simulated clock, advanced by that priced
// work (see admitDueLocked), never on a Clock.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
}

// WallClock is the real time.Now clock — the default everywhere.
type WallClock struct{}

// Now returns the current wall-clock time.
func (WallClock) Now() time.Time { return time.Now() }

// VirtualClock is a manually advanced clock for simulated-time replay. It
// never moves on its own: the owner advances it between events, so any
// timestamps read from it are a pure function of the event schedule — the
// basis of the replay harness's byte-identical ticket logs. All methods are
// safe for concurrent use.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock returns a virtual clock frozen at start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the clock's current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Set jumps the clock to t. Moving backwards is allowed (the clock does not
// police its owner), but replay drivers only ever move it forward.
func (c *VirtualClock) Set(t time.Time) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

// Advance moves the clock forward by d and returns the new time.
func (c *VirtualClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}
