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
// pinned by golden files. Chosen to cover the three table generations —
// a motivation figure, the trace-similarity figure, and the new adaptive
// experiment — while staying cheap enough for the unit-test suite.
var goldenExperiments = []string{"fig2", "fig4", "adaptive"}

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

// numbersMask names the cells of one experiment's tables that move from run
// to run and are therefore not pinned: whole columns by header, and whole
// rows by any cell that labels them.
type numbersMask struct {
	cols []string
	rows []string
}

// numbersExperiments are the paper figures whose numbers are pinned by
// testdata/numbers.golden, each with its mask. Everything not masked —
// every GraphM and GridGraph-S cell and every note line — must reproduce
// byte for byte at any GOMAXPROCS.
//
// The masked cells follow the Go scheduler:
//   - GridGraph-C runs one goroutine per job, all pricing into one simulated
//     LLC, so its column (fig9, fig11–13), its fig10 rows and every fig14
//     ratio other than C's own (fig14 is normalised to C) move;
//   - ablation's wall column is wall clock;
//   - ablation's "share only (sync off)" row prices each job into the shared
//     cache on its own goroutine.
var numbersExperiments = []struct {
	name string
	mask numbersMask
}{
	{"fig9", numbersMask{cols: []string{"GridGraph-C"}}},
	{"fig10", numbersMask{rows: []string{"GridGraph-C"}}},
	{"fig11", numbersMask{cols: []string{"GridGraph-C"}}},
	{"fig12", numbersMask{cols: []string{"GridGraph-C"}}},
	{"fig13", numbersMask{cols: []string{"GridGraph-C"}}},
	{"fig14", numbersMask{cols: []string{"GridGraph-S", "GridGraph-M"}}},
	{"fig18", numbersMask{}},
	{"ablation", numbersMask{cols: []string{"wall (sync cost)"}, rows: []string{"share only (sync off)"}}},
}

// apply replaces every masked cell of t with "*". A row is masked right of
// its label, so the golden still pins which rows exist.
func (m numbersMask) apply(t *Table) {
	maskCol := make([]bool, len(t.Headers))
	for i, h := range t.Headers {
		maskCol[i] = slices.Contains(m.cols, h)
	}
	for _, row := range t.Rows {
		label := slices.IndexFunc(row, func(c string) bool { return slices.Contains(m.rows, c) })
		for i := range row {
			if (i < len(maskCol) && maskCol[i]) || (label >= 0 && i > label) {
				row[i] = "*"
			}
		}
	}
}

// TestGoldenNumbers pins the simulated numbers of the paper's figures 9–14,
// 18 and the design ablations on the small harness. Unlike
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
			e.mask.apply(tb)
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
