package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span names. Each wraps one call across a public seam of the daemon stack
// (or, for spanStream, the interval between two such calls).
const (
	spanSubmit        = "server.submit"       // POST /v1/jobs handler
	spanEvolve        = "server.evolve"       // POST/DELETE /v1/graph/edges handler
	spanRequest       = "server.request"      // any other route
	spanOpenSession   = "core.open_session"   // Backend.OpenJobSession
	spanRoundWait     = "core.round_wait"     // JobDriver.BeginIteration
	spanPartitionWait = "core.partition_wait" // JobDriver.Sharing
	spanStream        = "core.stream"         // Sharing return -> next driver call
	spanEndIteration  = "core.end_iteration"  // JobDriver.EndIteration
	spanClose         = "core.close"          // JobDriver.Close
	spanCoreEvolve    = "core.evolve"         // Backend.AddEdges/RemoveEdges(+For)
	spanLogSubmit     = "service.ticketlog_submit"
	spanLogTerminal   = "service.ticketlog_terminal"
	spanWALAppend     = "storage.wal_append"      // EvolveSink.AppendEvolve
	spanWALCommit     = "storage.wal_commit_wait" // the commit func it returns
	spanCheckpoint    = "storage.checkpoint"      // srv.MaybeCheckpoint that wrote one
	spanRecoverOpen   = "storage.recover_open"    // storage.Open on restart
	spanRestore       = "server.restore"          // srv.Restore on restart
)

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; Parent is the index of the span open on the same goroutine when
// this one began (-1 for none); Ticket is the job the call served (0 when
// the call is not about one job).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Ticket int    `json:"ticket,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for the run; nothing is written until the
// run is over.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  map[uint64][]int // goroutine -> stack of open span indices
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[uint64][]int)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span on the calling goroutine, parented to the innermost
// span already open there. Spans opened with begin must be closed with end
// on the same goroutine.
func (t *tracer) begin(name string, ticket int) int {
	g := goid()
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Ticket: ticket})
	idx := len(t.spans) - 1
	t.open[g] = append(t.open[g], idx)
	return idx
}

// end closes span idx, which must be the innermost open span of the
// calling goroutine.
func (t *tracer) end(idx int) {
	g := goid()
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = end
	st := t.open[g]
	if len(st) > 0 && st[len(st)-1] == idx {
		st = st[:len(st)-1]
	}
	if len(st) == 0 {
		delete(t.open, g)
	} else {
		t.open[g] = st
	}
}

// setTicket attaches a ticket ID learned after the span began (the submit
// handler learns it from its own response).
func (t *tracer) setTicket(idx, ticket int) {
	t.mu.Lock()
	t.spans[idx].Ticket = ticket
	t.mu.Unlock()
}

// record adds a finished root span measured by the caller. It is for the
// driver goroutine's calls, which nothing else nests in, so it skips the
// goroutine lookup that begin pays.
func (t *tracer) record(name string, ticket int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: -1, Ticket: ticket})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// goid returns the calling goroutine's ID, parsed from the header line of
// its stack trace ("goroutine 18 [running]:").
func goid() uint64 {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	const prefix = len("goroutine ")
	var id uint64
	for i := prefix; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		id = id*10 + uint64(b[i]-'0')
	}
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its child spans cover (children may overlap each other and
// may outlive the parent; only the covered part of the parent counts).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - measure(clip(union(children[i]), interval{s.Start, s.End}))
	}
	return self
}

// interval is a half-open [a, b) in tracer nanoseconds.
type interval struct{ a, b int64 }

// union merges intervals into a sorted, disjoint list.
func union(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].a < s[j].a })
	out := s[:1]
	for _, v := range s[1:] {
		last := &out[len(out)-1]
		if v.a <= last.b {
			last.b = max(last.b, v.b)
			continue
		}
		out = append(out, v)
	}
	return out
}

// clip intersects a sorted, disjoint list with w.
func clip(ivs []interval, w interval) []interval {
	var out []interval
	for _, v := range ivs {
		a, b := max(v.a, w.a), min(v.b, w.b)
		if b > a {
			out = append(out, interval{a, b})
		}
	}
	return out
}

// subtract removes the sorted, disjoint list cut from the sorted, disjoint
// list ivs.
func subtract(ivs, cut []interval) []interval {
	var out []interval
	j := 0
	for _, v := range ivs {
		a := v.a
		for j < len(cut) && cut[j].b <= a {
			j++
		}
		for k := j; k < len(cut) && cut[k].a < v.b; k++ {
			if cut[k].a > a {
				out = append(out, interval{a, cut[k].a})
			}
			a = max(a, cut[k].b)
		}
		if a < v.b {
			out = append(out, interval{a, v.b})
		}
	}
	return out
}

func measure(ivs []interval) int64 {
	var total int64
	for _, v := range ivs {
		total += v.b - v.a
	}
	return total
}

// writeSpans writes spans as gzipped JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
