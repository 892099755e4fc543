package bench

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"graphm/internal/goldentest"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden table-layout files")

// goldenExperiments are the experiments whose rendered table layout is
// pinned by golden files: a motivation figure and the trace-similarity
// figure, both cheap enough for the unit-test suite.
var goldenExperiments = []string{"fig2", "fig4"}

// TestGoldenTableLayouts fails loudly when an experiment's table formatting
// drifts: changed headers, lost rows or columns, reworded notes. Refresh
// intentionally with `go test ./internal/bench -run TestGolden -update`.
func TestGoldenTableLayouts(t *testing.T) {
	for _, name := range goldenExperiments {
		t.Run(name, func(t *testing.T) {
			var buf strings.Builder
			h := smallHarness(&buf)
			if err := h.Run(name); err != nil {
				t.Fatal(err)
			}
			got := goldentest.Normalize(buf.String())
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("table layout for %q drifted from %s.\n--- got ---\n%s\n--- want ---\n%s",
					name, path, got, string(want))
			}
		})
	}
}

// The normalizer itself (masked numbers, collapsed padding and duration
// units) lives in internal/goldentest with its own pinning tests, shared
// with cmd/graphm-replay's golden test.

// numbersExperiments are the paper figures whose numbers are pinned by
// testdata/numbers.golden, each with the headers of its columns that are
// not pinned. Every other cell — every GraphM, GridGraph-S and GridGraph-C
// cell — and every note line must reproduce byte for byte at any
// GOMAXPROCS: every scheme prices its simulated LLC from one goroutine at
// a time (GraphM's window pricer, GridGraph-C's engine.Interleave), and
// GraphM admits fig15's and fig16's stamped arrivals on its simulated
// clock. Only ablation's wall column, which is wall clock, is masked.
var numbersExperiments = []struct {
	name   string
	masked []string
}{
	{"fig9", nil},
	{"fig10", nil},
	{"fig11", nil},
	{"fig12", nil},
	{"fig13", nil},
	{"fig14", nil},
	{"fig18", nil},
	{"ablation", []string{"wall (sync cost)"}},
	{"fig15", nil},
	{"fig16", nil},
}

// maskColumns replaces every cell of t under one of the headers with "*".
func maskColumns(t *Table, headers []string) {
	for i, h := range t.Headers {
		if slices.Contains(headers, h) {
			for _, row := range t.Rows {
				row[i] = "*"
			}
		}
	}
}

// TestGoldenNumbers pins the simulated numbers of the paper's figures 9–14,
// 18, the design ablations, and figures 15 and 16 on the small harness. Unlike
// TestGoldenTableLayouts it compares raw cells, so a change that moves a
// pinned number on purpose must refresh the golden
// (`go test ./internal/bench -run TestGoldenNumbers -update`) and explain
// each moved cell.
func TestGoldenNumbers(t *testing.T) {
	var buf strings.Builder
	h := smallHarness(&buf)
	for _, e := range numbersExperiments {
		tables, err := h.Tables(e.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			maskColumns(tb, e.masked)
			tb.Fprint(&buf)
		}
	}
	got := buf.String()
	path := filepath.Join("testdata", "numbers.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("pinned numbers drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, string(want))
	}
}
