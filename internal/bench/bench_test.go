package bench

import (
	"strings"
	"testing"

	"graphm/internal/graph"
	"graphm/internal/jobs"
	"graphm/internal/scenario"
)

// smallHarness keeps experiment runs fast in unit tests.
func smallHarness(buf *strings.Builder) *Harness {
	h := New(buf)
	h.JobCount = 4
	h.Cores = 4
	return h
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "t",
		Headers: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n"},
	}
	s := tb.String()
	for _, want := range []string{"== t ==", "a", "bb", "333", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestExperimentsRegistryComplete(t *testing.T) {
	names := Experiments()
	want := []string{"fig2", "fig3", "fig4", "table3", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
		"table4", "ablation", "openloop", "adaptive", "replay", "hotpath-serial",
		"hotpath-serial-wcc", "hotpath-serial-bfs", "hotpath-serial-sssp", "hotpath-serial-kcore",
		"hotpath-serial-labelprop", "hotpath-serial-ppr",
		"serve-http", "durability"}
	if len(names) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("entry %d = %q, want %q", i, names[i], n)
		}
		if Describe(n) == "" {
			t.Fatalf("experiment %q has no description", n)
		}
	}
	if Describe("nope") != "" {
		t.Fatal("unknown experiment described")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf strings.Builder
	if err := smallHarness(&buf).Run("fig99"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestGridEnvBuild(t *testing.T) {
	env, err := NewGridEnv(graph.PresetLiveJ)
	if err != nil {
		t.Fatal(err)
	}
	if env.Grid.NumPartitions() != env.GridP*env.GridP {
		t.Fatalf("partitions = %d, want %d", env.Grid.NumPartitions(), env.GridP*env.GridP)
	}
	if _, err := NewGridEnv("bogus"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestRunSchemeAllThreeCorrectAndOrdered(t *testing.T) {
	env, err := NewGridEnv(graph.PresetLiveJ)
	if err != nil {
		t.Fatal(err)
	}
	wf := func() *jobs.Workload { return jobs.Rotation(4, 3) }
	results := map[string]*SchemeResult{}
	for _, scheme := range Schemes {
		res, err := env.RunScheme(scheme, wf, RunOptions{Cores: 4})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.ScannedEdges == 0 || res.MakespanSec() <= 0 {
			t.Fatalf("%s: empty result %+v", scheme, res)
		}
		results[scheme] = res
	}
	// The headline shape: GraphM beats both baselines on the same workload.
	if m, c := results[SchemeM].MakespanSec(), results[SchemeC].MakespanSec(); m >= c {
		t.Errorf("M (%v) not faster than C (%v)", m, c)
	}
	if m, s := results[SchemeM].MakespanSec(), results[SchemeS].MakespanSec(); m >= s {
		t.Errorf("M (%v) not faster than S (%v)", m, s)
	}
	// Compute work is scheme-independent (same jobs, same graph).
	if a, b := results[SchemeS].ProcessedEdges, results[SchemeM].ProcessedEdges; a != b {
		t.Errorf("processed edges differ between schemes: %d vs %d", a, b)
	}
	if results[SchemeM].SysStats == nil {
		t.Error("scheme M did not record system stats")
	}
}

func TestRunSchemeRejectsUnknown(t *testing.T) {
	env, err := NewGridEnv(graph.PresetLiveJ)
	if err != nil {
		t.Fatal(err)
	}
	wf := func() *jobs.Workload { return jobs.Rotation(1, 3) }
	if _, err := env.RunScheme("X", wf, RunOptions{}); err == nil {
		t.Fatal("expected unknown-scheme error")
	}
}

func TestMotivationExperimentsRun(t *testing.T) {
	var buf strings.Builder
	h := smallHarness(&buf)
	for _, exp := range []string{"fig2", "fig4"} {
		if err := h.Run(exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	if !strings.Contains(buf.String(), "Figure 2") || !strings.Contains(buf.String(), "Figure 4(a)") {
		t.Fatal("figures missing from output")
	}
}

func TestTable3Runs(t *testing.T) {
	var buf strings.Builder
	h := smallHarness(&buf)
	if err := h.Run("table3"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, ds := range graph.DatasetNames() {
		if !strings.Contains(out, ds) {
			t.Fatalf("table3 missing dataset %s:\n%s", ds, out)
		}
	}
}

func TestDistributedSchemesRun(t *testing.T) {
	var buf strings.Builder
	h := smallHarness(&buf)
	for _, eng := range []string{"powergraph", "chaos"} {
		for _, scheme := range Schemes {
			res, err := h.runDistScheme(eng, graph.PresetLiveJ, scheme, 2, 2)
			if err != nil {
				t.Fatalf("%s/%s: %v", eng, scheme, err)
			}
			if res.MakespanSec() <= 0 {
				t.Fatalf("%s/%s: empty result", eng, scheme)
			}
		}
	}
}

func TestGraphChiSchemesRun(t *testing.T) {
	var buf strings.Builder
	h := smallHarness(&buf)
	for _, scheme := range Schemes {
		res, err := h.runGraphChiScheme(graph.PresetLiveJ, scheme, 2)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.ScannedEdges == 0 {
			t.Fatalf("%s: nothing scanned", scheme)
		}
	}
}

// TestAdaptiveExperimentWinsOnMisses is the PR's acceptance criterion: on
// the attach/detach ramp, adaptive re-labelling must produce fewer simulated
// LLC misses than the static labelling while the algorithm outputs stay
// bit-identical. The ramp's measured margin is ~15% with a few percent of
// run-to-run noise, so a strict less-than is asserted rather than a factor.
func TestAdaptiveExperimentWinsOnMisses(t *testing.T) {
	h := smallHarness(&strings.Builder{})
	static, err := h.adaptiveRun(false)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := h.adaptiveRun(true)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.res.Stats.Relabels == 0 {
		t.Fatal("adaptive ramp never re-labelled")
	}
	if static.res.Stats.Relabels != 0 {
		t.Fatalf("static run re-labelled %d times", static.res.Stats.Relabels)
	}
	if adaptive.res.CacheMisses >= static.res.CacheMisses {
		t.Fatalf("adaptive misses %d not below static %d", adaptive.res.CacheMisses, static.res.CacheMisses)
	}
	if err := scenario.CheckWorkEqual(static.res, adaptive.res); err != nil {
		t.Fatal(err)
	}
	if err := scenario.CheckOutputsEqual(static.res, adaptive.res); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveExperimentTable(t *testing.T) {
	var buf strings.Builder
	if err := smallHarness(&buf).Run("adaptive"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"adaptive chunk re-labelling", "static", "adaptive", "bit-identical across modes: yes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("adaptive table missing %q:\n%s", want, out)
		}
	}
}

func TestMakespanModel(t *testing.T) {
	r := &SchemeResult{Scheme: SchemeC, Cores: 4, ComputeNS: 4e9, MemNS: 4e9, IONS: 1e9}
	if got := r.MakespanSec(); got != 3.0 {
		t.Fatalf("C makespan = %v, want (4+4)/4+1 = 3", got)
	}
	r.Scheme = SchemeS
	want := (8e9/(4*SeqEfficiency) + 1e9) / 1e9
	got := r.MakespanSec()
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("S makespan = %v, want %v", got, want)
	}
	r.Jobs = 2
	if diff := r.AvgJobSec() - got/2; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("avg job = %v, want %v", r.AvgJobSec(), got/2)
	}
}

func TestLLCMissRate(t *testing.T) {
	r := &SchemeResult{LLCHits: 3, LLCMisses: 1}
	if r.LLCMissRate() != 0.25 {
		t.Fatalf("miss rate = %v", r.LLCMissRate())
	}
	empty := &SchemeResult{}
	if empty.LLCMissRate() != 0 {
		t.Fatal("empty rate should be 0")
	}
}
