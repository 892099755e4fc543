package scenario

// This file is the script side of the randomized differential fuzzer: a
// serializable description of a dynamic-concurrency script (GenScript), a
// seeded generator that only emits scripts obeying the package's
// determinism rules, a textual codec so minimized counterexamples can be
// checked into the test corpus, and a shrinking minimizer. The differential
// run-and-compare half lives in diff.go.

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"graphm/internal/algorithms"
	"graphm/internal/engine"
	"graphm/internal/graph"
)

// GenJob is one serializable job in a generated script. Only all-active
// programs (PageRank, WCC) are generated: the determinism rules of the
// package comment require every program to keep all partitions active while
// events fire, and both have comparable outputs for CheckOutputsEqual.
type GenJob struct {
	ID   int
	Algo string // "pagerank" or "wcc"
	// Iters is the PageRank iteration budget (tolerance pinned to 1e-12 so
	// the budget is exact); WCC runs to convergence and ignores it.
	Iters int
	Seed  int64
}

// GenEvent is one serializable scripted action, always anchored on the
// anchor job's (ID 1) partition barriers.
type GenEvent struct {
	Barrier int
	Kind    EventKind
	Job     GenJob       // Attach
	Target  int          // Detach, MutatePrivate
	Edges   []graph.Edge // Update, MutatePrivate
}

// GenScript is a serializable, self-validating scenario script. Partitions
// and NumV record the environment shape the barriers and edges were planned
// against, so a corpus entry replayed against a drifted environment fails
// loudly instead of silently anchoring events elsewhere.
type GenScript struct {
	Partitions int
	NumV       int
	Jobs       []GenJob
	Events     []GenEvent
}

// GenOptions bounds the generator.
type GenOptions struct {
	// Partitions is the layout's non-empty partition count (the per-round
	// barrier count of an all-active job).
	Partitions int
	// NumV bounds generated edge endpoints.
	NumV int
	// MaxInitial caps the initial batch size (default 3; the anchor always
	// exists).
	MaxInitial int
	// MaxEvents caps the event count (default 6).
	MaxEvents int
	// SingleJob restricts the script to one job and no attaches, the shape
	// whose LLC access schedule is fully deterministic — required for the
	// per-edge vs run-length CheckSimEqual differential.
	SingleJob bool
}

func (o GenOptions) withDefaults() GenOptions {
	if o.MaxInitial <= 0 {
		o.MaxInitial = 3
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 6
	}
	return o
}

// aliveUntil returns the last anchor barrier at which the job is
// deterministically still attached to the controller, given the anchor
// barrier it joined at (0 for initial jobs). The window is deliberately one
// full round short of the job's true lifetime: a job in its final round
// races the event's pre-barrier window (it can converge and close while the
// anchor still holds the partition open), so targets inside that round are
// never generated. WCC's convergence round count is graph-dependent, so WCC
// jobs are never targets (aliveUntil 0).
func aliveUntil(j GenJob, joinedAt, partitions int) int {
	if j.Algo != "pagerank" {
		return 0
	}
	return joinedAt + (j.Iters-2)*partitions
}

// GenerateScript draws a valid script from rng: anchors distinct and on
// safe barriers (never the final partition of an anchor round), attach IDs
// unique, detach/mutate targets provably alive at fire time, all programs
// all-active. Everything the differential fuzzer throws at the runtime
// comes from here, so validity is the generator's contract — an invalid
// script is a generator bug, not a finding.
func GenerateScript(rng *rand.Rand, opts GenOptions) (GenScript, error) {
	opts = opts.withDefaults()
	if opts.Partitions < 2 {
		return GenScript{}, fmt.Errorf("scenario: generator needs >= 2 partitions, got %d", opts.Partitions)
	}
	if opts.NumV < 16 {
		return GenScript{}, fmt.Errorf("scenario: generator needs NumV >= 16, got %d", opts.NumV)
	}
	p := opts.Partitions
	anchorIters := 4 + rng.Intn(4) // 4..7
	gs := GenScript{
		Partitions: p,
		NumV:       opts.NumV,
		Jobs:       []GenJob{{ID: 1, Algo: "pagerank", Iters: anchorIters, Seed: rng.Int63()}},
	}
	// joined maps a job ID to the anchor barrier it joined at (initial: 0).
	joined := map[int]int{1: 0}
	jobByID := map[int]GenJob{1: gs.Jobs[0]}
	if !opts.SingleJob {
		for n := rng.Intn(opts.MaxInitial); n > 0; n-- {
			id := len(gs.Jobs) + 1
			j := genJob(rng, id, anchorIters)
			gs.Jobs = append(gs.Jobs, j)
			joined[id] = 0
			jobByID[id] = j
		}
	}

	// Safe anchors: every barrier of the anchor's first anchorIters-1 rounds
	// that is not a round-final one. Drawn without replacement so causally
	// ordered events always have distinct anchors.
	var safe []int
	for b := 1; b <= (anchorIters-1)*p; b++ {
		if b%p != 0 {
			safe = append(safe, b)
		}
	}
	rng.Shuffle(len(safe), func(i, j int) { safe[i], safe[j] = safe[j], safe[i] })

	detachedAt := map[int]int{} // target -> detach barrier
	targetedAt := map[int]int{} // target -> highest barrier of any event targeting it
	nextAttachID := 11
	events := rng.Intn(opts.MaxEvents + 1)
	for n := 0; n < events && len(safe) > 0; n++ {
		b := safe[len(safe)-1]
		safe = safe[:len(safe)-1]
		kinds := []EventKind{Update, MutatePrivate}
		if !opts.SingleJob {
			kinds = append(kinds, Attach, Detach)
		}
		kind := kinds[rng.Intn(len(kinds))]
		target := func(id int) {
			if b > targetedAt[id] {
				targetedAt[id] = b
			}
		}
		switch kind {
		case Attach:
			// Attaches anchor strictly inside round one, like RampScript: a
			// job attached in a later round can hit the round-boundary
			// re-attach race at the end of its partial first iteration,
			// which rotates its partition stream order and shifts PageRank's
			// floating-point sums in the last bit (fuzzer-found, generator
			// seed 4). Inside round one every initial job is still mid-round
			// when the joiner's appendix drains, so the joiner always queues
			// at the barrier deterministically.
			if b >= p {
				gs.Events = append(gs.Events, GenEvent{Barrier: b, Kind: Update, Edges: genEdges(rng, opts.NumV)})
				continue
			}
			j := genJob(rng, nextAttachID, 4)
			nextAttachID++
			gs.Events = append(gs.Events, GenEvent{Barrier: b, Kind: Attach, Job: j})
			joined[j.ID] = b
			jobByID[j.ID] = j
		case Detach:
			id := pickTarget(rng, jobByID, joined, detachedAt, targetedAt, b, p, false)
			if id == 0 {
				gs.Events = append(gs.Events, GenEvent{Barrier: b, Kind: Update, Edges: genEdges(rng, opts.NumV)})
				continue
			}
			detachedAt[id] = b
			target(id)
			gs.Events = append(gs.Events, GenEvent{Barrier: b, Kind: Detach, Target: id})
		case MutatePrivate:
			// Any job alive at b may own the mutation, the trigger included:
			// no job resolves a chunk while an event fires (see the package
			// comment).
			id := pickTarget(rng, jobByID, joined, detachedAt, targetedAt, b, p, true)
			target(id)
			gs.Events = append(gs.Events, GenEvent{Barrier: b, Kind: MutatePrivate, Target: id, Edges: genEdges(rng, opts.NumV)})
		case Update:
			gs.Events = append(gs.Events, GenEvent{Barrier: b, Kind: Update, Edges: genEdges(rng, opts.NumV)})
		}
	}
	sort.SliceStable(gs.Events, func(i, j int) bool { return gs.Events[i].Barrier < gs.Events[j].Barrier })
	return gs, nil
}

// genJob draws a non-anchor job: a short PageRank (iteration budget 2..cap)
// or a WCC.
func genJob(rng *rand.Rand, id, anchorIters int) GenJob {
	if rng.Intn(3) == 0 {
		return GenJob{ID: id, Algo: "wcc", Seed: rng.Int63()}
	}
	hi := anchorIters - 1
	if hi < 2 {
		hi = 2
	}
	iters := 2 + rng.Intn(hi-1)
	return GenJob{ID: id, Algo: "pagerank", Iters: iters, Seed: rng.Int63()}
}

// pickTarget selects an event target: a job deterministically alive at
// barrier b, not yet detached at or before b, and not targeted by any
// already-generated event at a *later* barrier — barriers are drawn in
// shuffled order, so without that check a detach could slot in below an
// existing mutate/detach of the same job (the mutate would then fire on a
// job that already left, leaking its snapshot override past CheckClean,
// and the second detach would double-withdraw). The anchor (job 1) is a
// candidate only when withAnchor is set: it triggers every event, so it is
// alive at every b, but it carries every later event and must never be
// withdrawn. It returns 0 when no job qualifies.
func pickTarget(rng *rand.Rand, jobs map[int]GenJob, joined, detachedAt, targetedAt map[int]int, b, p int, withAnchor bool) int {
	var ids []int
	if withAnchor {
		ids = append(ids, 1)
	}
	for id, j := range jobs {
		if id == 1 {
			continue
		}
		if at, dead := detachedAt[id]; dead && b >= at {
			continue
		}
		if targetedAt[id] > b {
			continue
		}
		if jb := joined[id]; b > jb && b <= aliveUntil(j, jb, p) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0
	}
	sort.Ints(ids)
	return ids[rng.Intn(len(ids))]
}

func genEdges(rng *rand.Rand, numV int) []graph.Edge {
	n := 1 + rng.Intn(3)
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    graph.VertexID(rng.Intn(numV)),
			Dst:    graph.VertexID(rng.Intn(numV)),
			Weight: 1,
		}
	}
	return edges
}

// SingleJob reports whether the script has exactly one job and no attach
// events — the shape eligible for the CheckSimEqual differential.
func (gs GenScript) SingleJob() bool {
	if len(gs.Jobs) != 1 {
		return false
	}
	for _, e := range gs.Events {
		if e.Kind == Attach {
			return false
		}
	}
	return true
}

// Script compiles the serializable description into a runnable Script.
func (gs GenScript) Script() (Script, error) {
	var s Script
	for _, j := range gs.Jobs {
		spec, err := j.spec()
		if err != nil {
			return Script{}, err
		}
		s.Initial = append(s.Initial, spec)
	}
	for _, e := range gs.Events {
		ev := Event{AfterJob: 1, AfterBarriers: e.Barrier, Kind: e.Kind, Target: e.Target,
			Edges: append([]graph.Edge(nil), e.Edges...)}
		if e.Kind == Attach {
			spec, err := e.Job.spec()
			if err != nil {
				return Script{}, err
			}
			ev.Job = spec
		}
		s.Events = append(s.Events, ev)
	}
	return s, nil
}

func (j GenJob) spec() (JobSpec, error) {
	switch j.Algo {
	case "pagerank":
		iters := j.Iters
		if iters < 2 {
			return JobSpec{}, fmt.Errorf("scenario: job %d pagerank iters %d < 2", j.ID, iters)
		}
		return JobSpec{ID: j.ID, Seed: j.Seed, New: func() engine.Program {
			pr := algorithms.NewPageRank(0.85, iters)
			pr.Tolerance = 1e-12
			return pr
		}}, nil
	case "wcc":
		return JobSpec{ID: j.ID, Seed: j.Seed, New: func() engine.Program {
			return algorithms.NewWCC(1000)
		}}, nil
	default:
		return JobSpec{}, fmt.Errorf("scenario: job %d has unknown algo %q", j.ID, j.Algo)
	}
}

// Encode renders the script in the textual corpus format. The format is
// line-based and stable: minimized counterexamples are checked in verbatim
// and replayed by the corpus regression test.
func (gs GenScript) Encode() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graphm-scenario v1\n")
	fmt.Fprintf(&sb, "partitions %d\n", gs.Partitions)
	fmt.Fprintf(&sb, "vertices %d\n", gs.NumV)
	for _, j := range gs.Jobs {
		sb.WriteString(encodeJob("job", j))
	}
	for _, e := range gs.Events {
		switch e.Kind {
		case Attach:
			fmt.Fprintf(&sb, "event barrier=%d attach %s", e.Barrier, encodeJob("", e.Job))
		case Detach:
			fmt.Fprintf(&sb, "event barrier=%d detach target=%d\n", e.Barrier, e.Target)
		case Update:
			fmt.Fprintf(&sb, "event barrier=%d update edges=%s\n", e.Barrier, encodeEdges(e.Edges))
		case MutatePrivate:
			fmt.Fprintf(&sb, "event barrier=%d mutate target=%d edges=%s\n", e.Barrier, e.Target, encodeEdges(e.Edges))
		}
	}
	return sb.String()
}

func encodeJob(prefix string, j GenJob) string {
	s := fmt.Sprintf("id=%d algo=%s iters=%d seed=%d\n", j.ID, j.Algo, j.Iters, j.Seed)
	if prefix != "" {
		return prefix + " " + s
	}
	return s
}

func encodeEdges(edges []graph.Edge) string {
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("%d:%d:%g", e.Src, e.Dst, e.Weight)
	}
	return strings.Join(parts, ",")
}

// DecodeScript parses the textual corpus format back into a GenScript.
func DecodeScript(r io.Reader) (GenScript, error) {
	sc := bufio.NewScanner(r)
	var gs GenScript
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		fail := func(err error) (GenScript, error) {
			return GenScript{}, fmt.Errorf("scenario: corpus line %d %q: %w", line, text, err)
		}
		switch fields[0] {
		case "graphm-scenario":
			if len(fields) != 2 || fields[1] != "v1" {
				return fail(fmt.Errorf("unsupported version"))
			}
		case "partitions":
			v, err := atoiField(fields, 1)
			if err != nil {
				return fail(err)
			}
			gs.Partitions = v
		case "vertices":
			v, err := atoiField(fields, 1)
			if err != nil {
				return fail(err)
			}
			gs.NumV = v
		case "job":
			j, err := decodeJob(fields[1:])
			if err != nil {
				return fail(err)
			}
			gs.Jobs = append(gs.Jobs, j)
		case "event":
			e, err := decodeEvent(fields[1:])
			if err != nil {
				return fail(err)
			}
			gs.Events = append(gs.Events, e)
		default:
			return fail(fmt.Errorf("unknown directive"))
		}
	}
	if err := sc.Err(); err != nil {
		return GenScript{}, err
	}
	if gs.Partitions < 2 || gs.NumV <= 0 || len(gs.Jobs) == 0 {
		return GenScript{}, fmt.Errorf("scenario: corpus script incomplete (partitions=%d vertices=%d jobs=%d)",
			gs.Partitions, gs.NumV, len(gs.Jobs))
	}
	return gs, nil
}

func atoiField(fields []string, i int) (int, error) {
	if i >= len(fields) {
		return 0, fmt.Errorf("missing field %d", i)
	}
	return strconv.Atoi(fields[i])
}

func kvMap(fields []string) (map[string]string, error) {
	m := make(map[string]string, len(fields))
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("field %q is not key=value", f)
		}
		m[k] = v
	}
	return m, nil
}

func decodeJob(fields []string) (GenJob, error) {
	m, err := kvMap(fields)
	if err != nil {
		return GenJob{}, err
	}
	id, err := strconv.Atoi(m["id"])
	if err != nil {
		return GenJob{}, fmt.Errorf("bad id: %w", err)
	}
	iters := 0
	if m["iters"] != "" {
		if iters, err = strconv.Atoi(m["iters"]); err != nil {
			return GenJob{}, fmt.Errorf("bad iters: %w", err)
		}
	}
	seed := int64(0)
	if m["seed"] != "" {
		if seed, err = strconv.ParseInt(m["seed"], 10, 64); err != nil {
			return GenJob{}, fmt.Errorf("bad seed: %w", err)
		}
	}
	return GenJob{ID: id, Algo: m["algo"], Iters: iters, Seed: seed}, nil
}

func decodeEvent(fields []string) (GenEvent, error) {
	if len(fields) < 2 {
		return GenEvent{}, fmt.Errorf("event needs a barrier and a kind")
	}
	m, err := kvMap([]string{fields[0]})
	if err != nil {
		return GenEvent{}, err
	}
	barrier, err := strconv.Atoi(m["barrier"])
	if err != nil {
		return GenEvent{}, fmt.Errorf("bad barrier: %w", err)
	}
	e := GenEvent{Barrier: barrier}
	rest, err := kvMap(fields[2:])
	if err != nil {
		return GenEvent{}, err
	}
	switch fields[1] {
	case "attach":
		e.Kind = Attach
		if e.Job, err = decodeJob(fields[2:]); err != nil {
			return GenEvent{}, err
		}
	case "detach":
		e.Kind = Detach
		if e.Target, err = strconv.Atoi(rest["target"]); err != nil {
			return GenEvent{}, fmt.Errorf("bad target: %w", err)
		}
	case "update":
		e.Kind = Update
		if e.Edges, err = decodeEdges(rest["edges"]); err != nil {
			return GenEvent{}, err
		}
	case "mutate":
		e.Kind = MutatePrivate
		if e.Target, err = strconv.Atoi(rest["target"]); err != nil {
			return GenEvent{}, fmt.Errorf("bad target: %w", err)
		}
		if e.Edges, err = decodeEdges(rest["edges"]); err != nil {
			return GenEvent{}, err
		}
	default:
		return GenEvent{}, fmt.Errorf("unknown event kind %q", fields[1])
	}
	return e, nil
}

func decodeEdges(s string) ([]graph.Edge, error) {
	if s == "" {
		return nil, fmt.Errorf("event has no edges")
	}
	var edges []graph.Edge
	for _, part := range strings.Split(s, ",") {
		bits := strings.Split(part, ":")
		if len(bits) != 3 {
			return nil, fmt.Errorf("edge %q is not src:dst:weight", part)
		}
		src, err := strconv.Atoi(bits[0])
		if err != nil {
			return nil, fmt.Errorf("edge %q: %w", part, err)
		}
		dst, err := strconv.Atoi(bits[1])
		if err != nil {
			return nil, fmt.Errorf("edge %q: %w", part, err)
		}
		w, err := strconv.ParseFloat(bits[2], 32)
		if err != nil {
			return nil, fmt.Errorf("edge %q: %w", part, err)
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: float32(w)})
	}
	return edges, nil
}

// Minimize shrinks a failing script while fails keeps returning true: it
// repeatedly tries dropping each event (an attach drags the events
// targeting its job along) and each unreferenced non-anchor initial job,
// until a fixpoint. fails must be deterministic for the result to be a
// genuine minimal counterexample; the fuzzer's differential check is.
func Minimize(gs GenScript, fails func(GenScript) bool) GenScript {
	for changed := true; changed; {
		changed = false
		for i := len(gs.Events) - 1; i >= 0; i-- {
			cand := dropEvent(gs, i)
			if fails(cand) {
				gs = cand
				changed = true
			}
		}
		for i := len(gs.Jobs) - 1; i >= 1; i-- {
			if referenced(gs, gs.Jobs[i].ID) {
				continue
			}
			cand := gs
			cand.Jobs = append(append([]GenJob(nil), gs.Jobs[:i]...), gs.Jobs[i+1:]...)
			if fails(cand) {
				gs = cand
				changed = true
			}
		}
	}
	return gs
}

// dropEvent removes event i plus, for an attach, every event targeting the
// attached job (they would fail validation orphaned).
func dropEvent(gs GenScript, i int) GenScript {
	drop := map[int]bool{i: true}
	if gs.Events[i].Kind == Attach {
		id := gs.Events[i].Job.ID
		for j, e := range gs.Events {
			if (e.Kind == Detach || e.Kind == MutatePrivate) && e.Target == id {
				drop[j] = true
			}
		}
	}
	out := gs
	out.Events = nil
	for j, e := range gs.Events {
		if !drop[j] {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

func referenced(gs GenScript, id int) bool {
	for _, e := range gs.Events {
		if (e.Kind == Detach || e.Kind == MutatePrivate) && e.Target == id {
			return true
		}
	}
	return false
}
