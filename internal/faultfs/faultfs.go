// Package faultfs is the filesystem seam under the durable storage layer: a
// small interface over the handful of syscalls durability actually depends
// on (open, write, fsync, rename, directory sync), a passthrough OS
// implementation, and a deterministic fault injector that drives every
// durable code path through failure in-process.
//
// The injector is schedule-driven, not monkey-patched: a set of Rules — each
// naming an operation class, an optional path substring, a skip count, a
// fire budget and a fault kind — is evaluated against a per-class operation
// counter under one mutex, so the same rule set against the same operation
// sequence injects the same faults every run. Probabilistic rules draw from
// a seeded RNG for soak-style use; the chaos fuzzer sticks to count-based
// rules so its differential oracle (same seed, same bytes on disk) stays
// exact.
//
// Fault kinds model the real failure surface a write path sees:
//
//	fail    the op returns ErrInjected (EIO-shaped): fsync failure, open
//	        failure, rename failure — the fsyncgate class of bugs
//	enospc  the op returns syscall.ENOSPC wrapped in ErrInjected
//	torn    (writes only) a prefix of the buffer reaches the file, then the
//	        op fails — a torn write, the state a power cut leaves behind
//	latency the op succeeds after Delay — slow-disk injection
//
// A schedule has a text codec (ParseSchedule / Schedule.String) so fault
// scripts travel through CLI flags (graphm-serve -fault-schedule) and the
// chaos corpus files unchanged.
package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrInjected is the root of every injected fault; errors.Is(err, ErrInjected)
// distinguishes a scheduled fault from a real filesystem error in tests.
var ErrInjected = errors.New("faultfs: injected fault")

// File is the write-side file surface the storage layer uses.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations the durable store performs. All
// paths are plain OS paths; implementations must be safe for concurrent use.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory so renames and creates within it are
	// durable. Implementations follow the storage layer's historical
	// contract: best-effort on filesystems that cannot sync directories.
	SyncDir(dir string) error
}

// OS is the passthrough FS over the real filesystem.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Directory fsync support varies by filesystem; a sync error here is
	// reported, the close error is not (nothing more can be done with the fd).
	err = d.Sync()
	_ = d.Close()
	return err
}

// Op classifies one filesystem operation for rule matching.
type Op uint8

const (
	OpOpen Op = iota
	OpWrite
	OpSync
	OpRename
	OpRemove
	OpTruncate
	OpRead
	OpSyncDir
	numOps
)

var opNames = [...]string{"open", "write", "sync", "rename", "remove", "truncate", "read", "syncdir"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

func parseOp(s string) (Op, error) {
	for i, n := range opNames {
		if s == n {
			return Op(i), nil
		}
	}
	return 0, fmt.Errorf("faultfs: unknown op %q", s)
}

// Kind is the fault a matching rule injects.
type Kind uint8

const (
	// KindFail makes the op return ErrInjected.
	KindFail Kind = iota
	// KindENOSPC makes the op return syscall.ENOSPC (wrapped in ErrInjected).
	KindENOSPC
	// KindTorn (writes only) writes a deterministic prefix of the buffer,
	// then fails — the on-disk state is torn exactly as a crash mid-write.
	KindTorn
	// KindLatency delays the op by Rule.Delay, then lets it through.
	KindLatency
	numKinds
)

var kindNames = [...]string{"fail", "enospc", "torn", "latency"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func parseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("faultfs: unknown fault kind %q", s)
}

// Rule schedules one fault: operations of class Op whose path contains Path
// (empty matches all) skip the first After matches, then inject Kind on the
// next Count matches (Count 0 = every later match). Prob < 1 gates each
// would-be injection on a draw from the injector's seeded RNG.
type Rule struct {
	Op    Op
	Kind  Kind
	Path  string        // substring match on the file path; "" matches all
	After int           // matching ops to let through before arming
	Count int           // injections before the rule exhausts (0 = unlimited)
	Prob  float64       // per-op injection probability (0 or 1 = always)
	Delay time.Duration // KindLatency only

	seen  int // matching ops observed
	fired int // injections performed
}

// String encodes the rule in the schedule text format.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%s", r.Op, r.Kind)
	if r.Path != "" {
		fmt.Fprintf(&b, ":path=%s", r.Path)
	}
	if r.After > 0 {
		fmt.Fprintf(&b, ":after=%d", r.After)
	}
	if r.Count > 0 {
		fmt.Fprintf(&b, ":count=%d", r.Count)
	}
	if r.Prob > 0 && r.Prob < 1 {
		fmt.Fprintf(&b, ":p=%g", r.Prob)
	}
	if r.Delay > 0 {
		fmt.Fprintf(&b, ":delay=%s", r.Delay)
	}
	return b.String()
}

// Schedule is an ordered rule list; the first matching armed rule wins.
type Schedule []Rule

// String renders the schedule in the ParseSchedule format.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// ParseSchedule parses a comma-separated rule list. Each rule is
//
//	op:kind[:path=sub][:after=N][:count=M][:p=0.5][:delay=10ms]
//
// e.g. "sync:fail:path=wal-:after=3:count=2,write:enospc:path=tickets".
// An empty spec is the empty schedule.
func ParseSchedule(spec string) (Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var sched Schedule
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 {
			return nil, fmt.Errorf("faultfs: rule %q needs at least op:kind", part)
		}
		op, err := parseOp(fields[0])
		if err != nil {
			return nil, err
		}
		kind, err := parseKind(fields[1])
		if err != nil {
			return nil, err
		}
		r := Rule{Op: op, Kind: kind}
		for _, f := range fields[2:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("faultfs: rule option %q is not key=value", f)
			}
			switch k {
			case "path":
				r.Path = v
			case "after":
				if r.After, err = strconv.Atoi(v); err != nil || r.After < 0 {
					return nil, fmt.Errorf("faultfs: bad after=%q", v)
				}
			case "count":
				if r.Count, err = strconv.Atoi(v); err != nil || r.Count < 0 {
					return nil, fmt.Errorf("faultfs: bad count=%q", v)
				}
			case "p":
				if r.Prob, err = strconv.ParseFloat(v, 64); err != nil || r.Prob < 0 || r.Prob > 1 {
					return nil, fmt.Errorf("faultfs: bad p=%q", v)
				}
			case "delay":
				if r.Delay, err = time.ParseDuration(v); err != nil || r.Delay < 0 {
					return nil, fmt.Errorf("faultfs: bad delay=%q", v)
				}
			default:
				return nil, fmt.Errorf("faultfs: unknown rule option %q", k)
			}
		}
		if r.Kind == KindLatency && r.Delay == 0 {
			return nil, fmt.Errorf("faultfs: latency rule %q needs delay=", part)
		}
		sched = append(sched, r)
	}
	return sched, nil
}

// Stats counts operations seen and faults injected, per op class.
type Stats struct {
	Ops      [numOps]uint64
	Injected [numOps]uint64
}

// TotalInjected sums the injected counters across op classes.
func (s Stats) TotalInjected() uint64 {
	var n uint64
	for _, v := range s.Injected {
		n += v
	}
	return n
}

// Event records one injected fault, for evidence artifacts.
type Event struct {
	Seq  uint64 `json:"seq"` // global op sequence number at injection
	Op   string `json:"op"`
	Kind string `json:"kind"`
	Path string `json:"path"`
}

// Injector wraps an inner FS with a fault schedule. The zero schedule
// injects nothing (pure passthrough plus counters). All methods are safe
// for concurrent use; rule matching and RNG draws run under one mutex so a
// serial operation sequence maps to one deterministic fault sequence.
type Injector struct {
	inner FS

	mu     sync.Mutex
	rules  Schedule
	rng    rngSource
	seq    uint64
	stats  Stats
	events []Event
	frozen bool
}

// rngSource is the one RNG method the injector needs; *rand.Rand satisfies
// it. Kept tiny so tests can pin draws.
type rngSource interface{ Float64() float64 }

// New wraps inner with schedule. rng seeds probabilistic rules and may be
// nil when every rule is count-based (a Prob rule with nil rng always fires).
func New(inner FS, schedule Schedule, rng rngSource) *Injector {
	rules := make(Schedule, len(schedule))
	copy(rules, schedule)
	return &Injector{inner: inner, rules: rules, rng: rng}
}

// SetSchedule replaces the active rule set (fresh skip/fire counters).
func (in *Injector) SetSchedule(schedule Schedule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = make(Schedule, len(schedule))
	copy(in.rules, schedule)
}

// Disarm drops every rule; subsequent operations pass through untouched.
func (in *Injector) Disarm() { in.SetSchedule(nil) }

// Freeze makes every subsequent mutating operation fail with ErrInjected —
// the strongest persistent-failure mode (a dead device). Reads still pass.
func (in *Injector) Freeze(frozen bool) {
	in.mu.Lock()
	in.frozen = frozen
	in.mu.Unlock()
}

// Stats returns a snapshot of the op/injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Events returns the injected-fault log (copy), ordered by sequence.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// decision is what check resolves one op to.
type decision struct {
	kind   Kind
	inject bool
	delay  time.Duration
	torn   int // bytes to let through on a torn write of n bytes
}

// check matches one operation against the schedule and advances counters.
func (in *Injector) check(op Op, path string, writeLen int) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	in.stats.Ops[op]++
	if in.frozen && op != OpRead && op != OpSyncDir {
		in.stats.Injected[op]++
		in.events = append(in.events, Event{Seq: in.seq, Op: op.String(), Kind: "frozen", Path: path})
		return decision{kind: KindFail, inject: true}
	}
	for i := range in.rules {
		r := &in.rules[i]
		if r.Op != op || (r.Path != "" && !strings.Contains(path, r.Path)) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng != nil && in.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		in.stats.Injected[op]++
		in.events = append(in.events, Event{Seq: in.seq, Op: op.String(), Kind: r.Kind.String(), Path: path})
		d := decision{kind: r.Kind, inject: true, delay: r.Delay}
		if r.Kind == KindTorn {
			// Deterministic torn point: roughly half the buffer, at least one
			// byte short so the record is genuinely damaged.
			d.torn = writeLen / 2
			if d.torn >= writeLen && writeLen > 0 {
				d.torn = writeLen - 1
			}
		}
		return d
	}
	return decision{}
}

// err resolves a firing rule to its error value.
func (d decision) err(op Op, path string) error {
	switch d.kind {
	case KindENOSPC:
		return fmt.Errorf("%w: %s %s: %w", ErrInjected, op, path, syscall.ENOSPC)
	default:
		return fmt.Errorf("%w: %s %s", ErrInjected, op, path)
	}
}

func (in *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	d := in.check(OpOpen, name, 0)
	if d.inject {
		if d.kind == KindLatency {
			time.Sleep(d.delay)
		} else {
			return nil, d.err(OpOpen, name)
		}
	}
	f, err := in.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f, name: name}, nil
}

func (in *Injector) Rename(oldpath, newpath string) error {
	d := in.check(OpRename, newpath, 0)
	if d.inject {
		if d.kind == KindLatency {
			time.Sleep(d.delay)
		} else {
			return d.err(OpRename, newpath)
		}
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	d := in.check(OpRemove, name, 0)
	if d.inject && d.kind != KindLatency {
		return d.err(OpRemove, name)
	}
	return in.inner.Remove(name)
}

func (in *Injector) Truncate(name string, size int64) error {
	d := in.check(OpTruncate, name, 0)
	if d.inject && d.kind != KindLatency {
		return d.err(OpTruncate, name)
	}
	return in.inner.Truncate(name, size)
}

func (in *Injector) MkdirAll(path string, perm fs.FileMode) error {
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) ReadFile(name string) ([]byte, error) {
	d := in.check(OpRead, name, 0)
	if d.inject && d.kind != KindLatency {
		return nil, d.err(OpRead, name)
	}
	return in.inner.ReadFile(name)
}

func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	return in.inner.ReadDir(name)
}

func (in *Injector) SyncDir(dir string) error {
	d := in.check(OpSyncDir, dir, 0)
	if d.inject && d.kind != KindLatency {
		return d.err(OpSyncDir, dir)
	}
	return in.inner.SyncDir(dir)
}

// faultFile threads write/sync/close through the injector.
type faultFile struct {
	in   *Injector
	f    File
	name string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	d := ff.in.check(OpWrite, ff.name, len(p))
	if d.inject {
		switch d.kind {
		case KindLatency:
			time.Sleep(d.delay)
		case KindTorn:
			n, werr := ff.f.Write(p[:d.torn])
			err := d.err(OpWrite, ff.name)
			if werr != nil {
				err = fmt.Errorf("%w (underlying: %v)", err, werr)
			}
			return n, err
		default:
			return 0, d.err(OpWrite, ff.name)
		}
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	d := ff.in.check(OpSync, ff.name, 0)
	if d.inject {
		if d.kind == KindLatency {
			time.Sleep(d.delay)
		} else {
			return d.err(OpSync, ff.name)
		}
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
