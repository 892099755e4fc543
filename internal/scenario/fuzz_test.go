package scenario

// The randomized differential fuzzer: seeded script generation, the
// cross-configuration invariant check, counterexample minimization, and the
// checked-in corpus replayed as a regression test.
//
// Corpus workflow: when TestFuzzDifferentialScripts (or the native
// FuzzGeneratedScriptDifferential target) finds a divergence, it minimizes
// the script and writes the encoding to testdata/failures/; commit the file
// under testdata/corpus/ (any name ending in .scenario) once the underlying
// bug is understood, so the regression replays forever.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzScripts returns how many generated scripts the differential fuzz test
// replays: GRAPHM_FUZZ_SCRIPTS when set (the CI short configuration pins 50;
// nightly runs crank it up), else 50, scaled down under -short.
func fuzzScripts(t *testing.T) int {
	if v := os.Getenv("GRAPHM_FUZZ_SCRIPTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad GRAPHM_FUZZ_SCRIPTS=%q", v)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return 50
}

func fuzzGenOptions(t *testing.T, o DiffOptions) GenOptions {
	t.Helper()
	gopts, err := o.GenDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return gopts
}

// TestFuzzDifferentialScripts is the fuzzer's main loop: generate N valid
// scripts from fixed seeds, replay each across the configuration matrix, and fail with a minimized, corpus-ready counterexample on any
// divergence. Seeds are fixed (seed i is script i) so CI failures reproduce
// exactly; odd seeds generate single-job scripts, which additionally run
// the per-edge vs run-length accounting differential.
func TestFuzzDifferentialScripts(t *testing.T) {
	o := DiffOptions{}
	gopts := fuzzGenOptions(t, o)
	n := fuzzScripts(t)
	for seed := 0; seed < n; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		opts := gopts
		opts.SingleJob = seed%2 == 1
		gs, err := GenerateScript(rng, opts)
		if err != nil {
			t.Fatalf("seed %d: generator: %v", seed, err)
		}
		if err := DiffCheck(gs, o); err != nil {
			reportCounterexample(t, seed, gs, o, err)
		}
	}
}

// reportCounterexample minimizes a failing script and fails the test with
// the encoded result plus where it was written.
func reportCounterexample(t *testing.T, seed int, gs GenScript, o DiffOptions, err error) {
	t.Helper()
	min := Minimize(gs, func(cand GenScript) bool { return DiffCheck(cand, o) != nil })
	finalErr := DiffCheck(min, o)
	enc := min.Encode()
	dir := filepath.Join("testdata", "failures")
	path := filepath.Join(dir, fmt.Sprintf("seed%d.scenario", seed))
	if mkErr := os.MkdirAll(dir, 0o755); mkErr == nil {
		_ = os.WriteFile(path, []byte(enc), 0o644)
	}
	t.Fatalf("seed %d diverged: %v\nminimized (%v):\n%s\nwritten to %s — move under testdata/corpus/ to pin the regression",
		seed, err, finalErr, enc, path)
}

// TestFuzzCorpusRegression replays every checked-in corpus script through
// the full differential matrix. The corpus is where minimized fuzz
// counterexamples live once fixed, plus seed scripts that pin each event
// kind.
func TestFuzzCorpusRegression(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.scenario"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("corpus is empty — the seed scripts should be checked in")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			gs, err := DecodeScript(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := DiffCheck(gs, DiffOptions{}); err != nil {
				t.Fatalf("corpus regression: %v", err)
			}
		})
	}
}

// TestGenerateScriptDeterministicAndValid: the generator is a pure function
// of its RNG, and across many seeds every script it emits passes the
// runner's own validation — validity is the generator's contract.
func TestGenerateScriptDeterministicAndValid(t *testing.T) {
	gopts := fuzzGenOptions(t, DiffOptions{})
	a, err := GenerateScript(rand.New(rand.NewSource(12)), gopts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateScript(rand.New(rand.NewSource(12)), gopts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Encode() != b.Encode() {
		t.Fatal("same-seed generation differs")
	}
	for seed := int64(0); seed < 200; seed++ {
		opts := gopts
		opts.SingleJob = seed%2 == 1
		gs, err := GenerateScript(rand.New(rand.NewSource(seed)), opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		script, err := gs.Script()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		if err := validate(script); err != nil {
			t.Fatalf("seed %d: generated invalid script: %v\n%s", seed, err, gs.Encode())
		}
		if opts.SingleJob && !gs.SingleJob() {
			t.Fatalf("seed %d: SingleJob option produced a multi-job script", seed)
		}
		for i, e := range gs.Events {
			if e.Barrier%gs.Partitions == 0 {
				t.Fatalf("seed %d: event %d anchored on a round-final barrier %d", seed, i, e.Barrier)
			}
			for j := range gs.Events {
				if i != j && gs.Events[i].Barrier == gs.Events[j].Barrier {
					t.Fatalf("seed %d: events %d and %d share barrier %d", seed, i, j, e.Barrier)
				}
			}
			// A detached job must never be targeted again later: barriers
			// are drawn in shuffled order, and an early version of the
			// generator could slot a detach below an existing mutate of the
			// same job — the mutate then fired on a departed job, leaking
			// its snapshot override.
			if e.Kind == Detach {
				for _, o := range gs.Events {
					if (o.Kind == Detach || o.Kind == MutatePrivate) && o.Target == e.Target && o.Barrier > e.Barrier {
						t.Fatalf("seed %d: detach@%d of job %d but %v@%d targets it afterwards",
							seed, e.Barrier, e.Target, o.Kind, o.Barrier)
					}
				}
			}
		}
	}
}

// TestGenScriptCodecRoundTrip: Encode/Decode is lossless for generated
// scripts of every shape.
func TestGenScriptCodecRoundTrip(t *testing.T) {
	gopts := fuzzGenOptions(t, DiffOptions{})
	for seed := int64(0); seed < 50; seed++ {
		opts := gopts
		opts.SingleJob = seed%2 == 1
		gs, err := GenerateScript(rand.New(rand.NewSource(seed)), opts)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeScript(strings.NewReader(gs.Encode()))
		if err != nil {
			t.Fatalf("seed %d: decode: %v\n%s", seed, err, gs.Encode())
		}
		// Normalize nil-vs-empty slices before comparing.
		if len(dec.Events) == 0 {
			dec.Events = nil
		}
		if !reflect.DeepEqual(gs, dec) {
			t.Fatalf("seed %d: round trip changed the script:\n%+v\nvs\n%+v", seed, gs, dec)
		}
	}
}

// TestDecodeScriptRejectsGarbage covers the codec's failure modes so a
// corrupted corpus file fails loudly.
func TestDecodeScriptRejectsGarbage(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"unknown directive", "graphm-scenario v1\nbogus 1\n", "unknown directive"},
		{"bad version", "graphm-scenario v2\n", "unsupported version"},
		{"bad edge", "graphm-scenario v1\npartitions 3\nvertices 100\njob id=1 algo=pagerank iters=3 seed=1\nevent barrier=1 update edges=xx\n", "not src:dst:weight"},
		{"bad barrier", "graphm-scenario v1\nevent barrier=zz update edges=1:2:1\n", "bad barrier"},
		{"incomplete", "graphm-scenario v1\npartitions 3\n", "incomplete"},
		{"unknown kind", "graphm-scenario v1\npartitions 3\nvertices 100\njob id=1 algo=pagerank iters=3 seed=1\nevent barrier=1 explode target=1\n", "unknown event kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeScript(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestMinimizeShrinksToCulprit drives the minimizer with a synthetic
// predicate: only one event kind matters, so the fixpoint must be exactly
// one event and no unreferenced extra jobs.
func TestMinimizeShrinksToCulprit(t *testing.T) {
	gopts := fuzzGenOptions(t, DiffOptions{})
	var gs GenScript
	// Find a seeded script with an update plus other material to shed.
	for seed := int64(0); ; seed++ {
		if seed > 500 {
			t.Fatal("no generated script had an update event plus extra jobs")
		}
		g, err := GenerateScript(rand.New(rand.NewSource(seed)), gopts)
		if err != nil {
			t.Fatal(err)
		}
		updates := 0
		for _, e := range g.Events {
			if e.Kind == Update {
				updates++
			}
		}
		if updates >= 1 && len(g.Jobs) >= 2 && len(g.Events) >= 3 {
			gs = g
			break
		}
	}
	hasUpdate := func(g GenScript) bool {
		for _, e := range g.Events {
			if e.Kind == Update {
				return true
			}
		}
		return false
	}
	min := Minimize(gs, hasUpdate)
	if len(min.Events) != 1 || min.Events[0].Kind != Update {
		t.Fatalf("minimizer left %d events (want exactly the update): %+v", len(min.Events), min.Events)
	}
	if len(min.Jobs) != 1 || min.Jobs[0].ID != 1 {
		t.Fatalf("minimizer left %d jobs, want only the anchor", len(min.Jobs))
	}
	// Minimized scripts must still be valid and replayable.
	if err := DiffCheck(min, DiffOptions{}); err != nil {
		t.Fatalf("minimized script no longer passes the differential: %v", err)
	}
}

// TestMinimizeDropsAttachDependents: removing an attach must drag the
// events targeting the attached job along, or minimization would produce
// invalid scripts.
func TestMinimizeDropsAttachDependents(t *testing.T) {
	gs := GenScript{
		Partitions: 3,
		NumV:       100,
		Jobs:       []GenJob{{ID: 1, Algo: "pagerank", Iters: 6, Seed: 1}},
		Events: []GenEvent{
			{Barrier: 1, Kind: Attach, Job: GenJob{ID: 11, Algo: "pagerank", Iters: 4, Seed: 2}},
			{Barrier: 2, Kind: Update, Edges: genEdges(rand.New(rand.NewSource(1)), 100)},
			{Barrier: 4, Kind: Detach, Target: 11},
		},
	}
	min := Minimize(gs, func(g GenScript) bool {
		for _, e := range g.Events {
			if e.Kind == Update {
				return true
			}
		}
		return false
	})
	if len(min.Events) != 1 || min.Events[0].Kind != Update {
		t.Fatalf("minimize left %+v", min.Events)
	}
	script, err := min.Script()
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(script); err != nil {
		t.Fatalf("minimized script invalid: %v", err)
	}
}

// FuzzGeneratedScriptDifferential is the native fuzz entry point: go's
// fuzzer mutates the generator seed, and every derived script must pass the
// full differential matrix. Run locally or nightly with
//
//	go test ./internal/scenario -fuzz FuzzGeneratedScriptDifferential -fuzztime 60s
func FuzzGeneratedScriptDifferential(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(6))
	o := DiffOptions{}
	gopts, err := o.GenDefaults()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		opts := gopts
		opts.SingleJob = seed%2 != 0
		gs, err := GenerateScript(rng, opts)
		if err != nil {
			t.Fatalf("generator rejected its own options: %v", err)
		}
		if err := DiffCheck(gs, o); err != nil {
			min := Minimize(gs, func(cand GenScript) bool { return DiffCheck(cand, o) != nil })
			t.Fatalf("seed %d diverged: %v\nminimized:\n%s", seed, err, min.Encode())
		}
	})
}
