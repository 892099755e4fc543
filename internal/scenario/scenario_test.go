package scenario_test

import (
	"strings"
	"testing"

	"graphm/internal/algorithms"
	"graphm/internal/core"
	"graphm/internal/engine"
	"graphm/internal/graph"
	"graphm/internal/scenario"
)

const (
	testLLC    = 32 << 10
	testBudget = 64 << 20
)

// testEnv builds a fresh deterministic environment; each comparative run
// needs its own memory pool and cache.
func testEnv(t *testing.T) (scenario.Env, *graph.Graph) {
	t.Helper()
	env, g, err := scenario.GenEnv("scn", 400, 3200, 3, 17, testLLC, testBudget)
	if err != nil {
		t.Fatal(err)
	}
	return env, g
}

// testScript is the canonical ramp plus one global update and one private
// mutation, so a single script exercises attach, detach, update and mutate.
func testScript(t *testing.T, env scenario.Env) scenario.Script {
	t.Helper()
	parts := env.NonEmptyPartitions()
	s, err := scenario.RampScript(scenario.RampOptions{
		Partitions:  parts,
		RampJobs:    5,
		AnchorIters: 7,
		ShortIters:  3,
		DetachLast:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Events = append(s.Events,
		scenario.Event{
			AfterJob: 1, AfterBarriers: 2, Kind: scenario.Update,
			Edges: []graph.Edge{{Src: 3, Dst: 4, Weight: 1}, {Src: 250, Dst: 5, Weight: 1}},
		},
		scenario.Event{
			AfterJob: 1, AfterBarriers: parts + 1, Kind: scenario.MutatePrivate, Target: 1,
			Edges: []graph.Edge{{Src: 9, Dst: 10, Weight: 1}},
		},
	)
	return s
}

func runCfg(adaptive bool) core.Config {
	cfg := core.DefaultConfig(testLLC)
	cfg.Cores = 1
	cfg.AdaptiveChunking = adaptive
	return cfg
}

func mustRun(t *testing.T, adaptive bool) *scenario.Result {
	t.Helper()
	env, _ := testEnv(t)
	script := testScript(t, env)
	res, err := scenario.Run(env, runCfg(adaptive), script)
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.CheckClean(env, res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScenarioScriptedTimeline is the harness's headline check: one
// scripted dynamic-concurrency timeline produces its mid-round joins and
// exactly the scripted detach.
func TestScenarioScriptedTimeline(t *testing.T) {
	res := mustRun(t, false)
	if res.Stats.MidRoundJoins == 0 {
		t.Fatal("script produced no mid-round joins — the ramp never attached")
	}
	if res.Stats.Detaches != 1 {
		t.Fatalf("detaches = %d, want exactly the scripted one", res.Stats.Detaches)
	}
	if !res.Jobs[15].Detached {
		t.Fatal("scripted detach target not recorded as detached")
	}
}

// TestScenarioAdaptiveMatchesStatic: adaptive re-labelling must change chunk
// granularity (relabels fire on the ramp) and nothing else.
func TestScenarioAdaptiveMatchesStatic(t *testing.T) {
	static := mustRun(t, false)
	adaptive := mustRun(t, true)
	if adaptive.Stats.Relabels == 0 {
		t.Fatal("adaptive run never re-labelled on a 2 -> 7 attendance ramp")
	}
	if err := scenario.CheckWorkEqual(static, adaptive); err != nil {
		t.Fatal(err)
	}
	if err := scenario.CheckOutputsEqual(static, adaptive); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioDeterministicRepeat: the same script twice must agree on the
// deterministic contract — per-job work, bit-identical outputs, and the
// scripted detach. Controller-level counters (rounds, mid-round joins,
// shared loads, relabels) are deliberately not pinned: a JoinMidRound job
// reaching its iteration boundary races the next round's formation, so those
// counters vary run to run by design (the work does not).
func TestScenarioDeterministicRepeat(t *testing.T) {
	a := mustRun(t, true)
	b := mustRun(t, true)
	if err := scenario.CheckWorkEqual(a, b); err != nil {
		t.Fatal(err)
	}
	if err := scenario.CheckOutputsEqual(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Stats.Detaches != 1 || b.Stats.Detaches != 1 {
		t.Fatalf("scripted detach count: %d and %d, want 1 and 1", a.Stats.Detaches, b.Stats.Detaches)
	}
}

// TestScenarioSimEqualPerEdgeVsRunLength is the accounting-model invariant:
// under the serial driver with a single job — the one configuration whose
// LLC access schedule is fully deterministic — the batched run-length hot
// path and the per-edge reference model must count every hit and miss
// identically, price identical simulated time, do identical work, and
// produce bit-identical outputs. Run for every fallback algorithm: the
// full-active ones (PageRank, PPR, WCC, label propagation, k-core) exercise
// the memoised set-grouped state path, the frontier ones (BFS, SSSP) the
// gated sparse path — inactive-source runs dominate there.
func TestScenarioSimEqualPerEdgeVsRunLength(t *testing.T) {
	checkSimEqualPerAlgorithm(t, testBudget)
}

// TestScenarioSimEqualAcrossReloads is the same invariant out of core: a
// one-byte memory budget evicts every partition before its next load, so
// each iteration streams its chunks from freshly loaded buffers at new
// addresses — the case the per-chunk memo must serve by chunk identity
// rather than by buffer address, without moving a single counter.
func TestScenarioSimEqualAcrossReloads(t *testing.T) {
	checkSimEqualPerAlgorithm(t, 1)
}

func checkSimEqualPerAlgorithm(t *testing.T, budget int64) {
	progs := map[string]func() engine.Program{
		"pagerank":  func() engine.Program { return algorithms.NewPageRank(0.85, 5) },
		"ppr":       func() engine.Program { return algorithms.NewPersonalizedPageRank(1, 0.85, 5) },
		"wcc":       func() engine.Program { return algorithms.NewWCC(6) },
		"labelprop": func() engine.Program { return algorithms.NewLabelPropagation(5) },
		"kcore":     func() engine.Program { return algorithms.NewKCore(3) },
		"bfs":       func() engine.Program { return algorithms.NewBFS(1) },
		"sssp":      func() engine.Program { return algorithms.NewSSSP(1) },
	}
	for name, mk := range progs {
		t.Run(name, func(t *testing.T) {
			script := scenario.Script{Initial: []scenario.JobSpec{{ID: 1, Seed: 5, New: mk}}}
			run := func(perEdge bool) *scenario.Result {
				env, _, err := scenario.GenEnv("scn", 400, 3200, 3, 17, testLLC, budget)
				if err != nil {
					t.Fatal(err)
				}
				cfg := runCfg(false)
				cfg.PerEdgeSim = perEdge
				res, err := scenario.Run(env, cfg, script)
				if err != nil {
					t.Fatal(err)
				}
				if err := scenario.CheckClean(env, res); err != nil {
					t.Fatal(err)
				}
				if m := res.Jobs[1].Metrics; budget < testBudget && (m.Iterations < 2 || env.Mem.Faults() != m.PartitionLoads) {
					t.Fatalf("reload run: %d iterations, %d faults for %d partition loads — want >= 2 iterations, every load a fault",
						m.Iterations, env.Mem.Faults(), m.PartitionLoads)
				}
				return res
			}
			batched := run(false)
			perEdge := run(true)
			if batched.CacheHits == 0 || batched.CacheMisses == 0 {
				t.Fatal("run recorded no LLC traffic — the invariant would be vacuous")
			}
			if err := scenario.CheckSimEqual(batched, perEdge); err != nil {
				t.Fatal(err)
			}
			if err := scenario.CheckWorkEqual(batched, perEdge); err != nil {
				t.Fatal(err)
			}
			if err := scenario.CheckOutputsEqual(batched, perEdge); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScenarioPerEdgeModelMatchesAcrossRamp runs the full dynamic ramp under
// the per-edge reference model: the schedule-independent contract (work
// counters, bit-identical outputs) must hold between accounting models even
// where exact LLC counts are schedule-dependent (concurrent jobs interleave
// set accesses differently per model).
func TestScenarioPerEdgeModelMatchesAcrossRamp(t *testing.T) {
	batched := mustRun(t, false)
	env, _ := testEnv(t)
	script := testScript(t, env)
	cfg := runCfg(false)
	cfg.PerEdgeSim = true
	perEdge, err := scenario.Run(env, cfg, script)
	if err != nil {
		t.Fatal(err)
	}
	if err := scenario.CheckClean(env, perEdge); err != nil {
		t.Fatal(err)
	}
	if err := scenario.CheckWorkEqual(batched, perEdge); err != nil {
		t.Fatal(err)
	}
	if err := scenario.CheckOutputsEqual(batched, perEdge); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioResultsCorrect anchors the harness to ground truth: a plain
// ramp (no graph mutations) run under adaptive chunking must still reproduce the reference PageRank and WCC solutions exactly.
func TestScenarioResultsCorrect(t *testing.T) {
	env, g := testEnv(t)
	parts := env.NonEmptyPartitions()
	script, err := scenario.RampScript(scenario.RampOptions{
		Partitions: parts, RampJobs: 4, AnchorIters: 6, ShortIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(env, runCfg(true), script)
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Jobs[1].Prog.(*algorithms.PageRank)
	want := algorithms.ReferencePageRank(g, 0.85, 6)
	for v := range want {
		if diff := pr.Ranks()[v] - want[v]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("anchor rank[%d] = %g, want %g", v, pr.Ranks()[v], want[v])
		}
	}
	wcc := res.Jobs[2].Prog.(*algorithms.WCC)
	wantWCC := algorithms.ReferenceWCC(g)
	for v := range wantWCC {
		if wcc.Labels()[v] != wantWCC[v] {
			t.Fatalf("anchor wcc[%d] = %d, want %d", v, wcc.Labels()[v], wantWCC[v])
		}
	}
	shorts := 0
	for id, j := range res.Jobs {
		if id >= 11 && j.Work.Iterations == 3 {
			shorts++
		}
	}
	if shorts != 4 {
		t.Fatalf("%d ramp jobs completed 3 iterations, want 4", shorts)
	}
}

// TestScenarioScriptValidation covers the malformed-script and
// unreachable-anchor failure modes.
func TestScenarioScriptValidation(t *testing.T) {
	env, _ := testEnv(t)
	prog := func() engine.Program { return algorithms.NewPageRank(0.85, 2) }

	cases := []struct {
		name   string
		script scenario.Script
		want   string
	}{
		{
			"duplicate initial ID",
			scenario.Script{Initial: []scenario.JobSpec{{ID: 1, New: prog}, {ID: 1, New: prog}}},
			"duplicate job ID",
		},
		{
			"missing factory",
			scenario.Script{Initial: []scenario.JobSpec{{ID: 1}}},
			"no program factory",
		},
		{
			"zero barrier anchor",
			scenario.Script{
				Initial: []scenario.JobSpec{{ID: 1, New: prog}},
				Events:  []scenario.Event{{AfterJob: 1, AfterBarriers: 0, Kind: scenario.Update}},
			},
			"must be >= 1",
		},
		{
			"detach of unknown job",
			scenario.Script{
				Initial: []scenario.JobSpec{{ID: 1, New: prog}},
				Events:  []scenario.Event{{AfterJob: 1, AfterBarriers: 1, Kind: scenario.Detach, Target: 99}},
			},
			"unknown job",
		},
		{
			"mutate of unknown job",
			scenario.Script{
				Initial: []scenario.JobSpec{{ID: 1, New: prog}},
				Events:  []scenario.Event{{AfterJob: 1, AfterBarriers: 1, Kind: scenario.MutatePrivate, Target: 99}},
			},
			"unknown job",
		},
		{
			"attach reusing ID",
			scenario.Script{
				Initial: []scenario.JobSpec{{ID: 1, New: prog}},
				Events: []scenario.Event{{AfterJob: 1, AfterBarriers: 1, Kind: scenario.Attach,
					Job: scenario.JobSpec{ID: 1, New: prog}}},
			},
			"reuses job ID",
		},
		{
			"unreachable anchor",
			scenario.Script{
				Initial: []scenario.JobSpec{{ID: 1, New: prog}},
				Events:  []scenario.Event{{AfterJob: 1, AfterBarriers: 100000, Kind: scenario.Update}},
			},
			"never fired",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scenario.Run(env, runCfg(false), tc.script)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want containing %q", err, tc.want)
			}
		})
	}

	if _, err := scenario.RampScript(scenario.RampOptions{Partitions: 4, RampJobs: 9, AnchorIters: 5, ShortIters: 2}); err == nil {
		t.Fatal("oversized ramp accepted")
	}
}
