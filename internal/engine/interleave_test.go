package engine

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// TestInterleave pins engine.Interleave's schedule: the round-robin step
// order, the bound on active runs, admission of queued runs into the first
// free slot in slice order, every run completing, and the first error in
// slice order being returned.
func TestInterleave(t *testing.T) {
	errB, errC := errors.New("b"), errors.New("c")
	type run struct {
		yields int // yields before returning
		err    error
	}
	cases := []struct {
		name      string
		cores     int
		runs      []run
		trace     []string // "id:k" before the k-th yield, "id:end" at return
		maxActive int
		err       error
	}{
		{
			name:  "all active",
			cores: 0,
			runs:  []run{{yields: 2}, {yields: 1}, {yields: 0}},
			trace: []string{"0:0", "1:0", "2:end", "0:1", "1:end", "0:end"},
			// Every run is admitted before the first step.
			maxActive: 3,
		},
		{
			name:  "cores above run count",
			cores: 8,
			runs:  []run{{yields: 1}, {yields: 1}},
			trace: []string{"0:0", "1:0", "0:end", "1:end"},
			// The bound is clamped to the run count.
			maxActive: 2,
		},
		{
			name:  "queued runs take the first free slot",
			cores: 2,
			runs:  []run{{yields: 1}, {yields: 0}, {yields: 2}, {yields: 0}},
			// Run 2 takes slot 1 when run 1 ends and steps from the next
			// round; run 3 takes slot 0 when run 0 ends, so it steps
			// before run 2 in the round after.
			trace:     []string{"0:0", "1:end", "0:end", "2:0", "3:end", "2:1", "2:end"},
			maxActive: 2,
		},
		{
			name:  "one core runs back to back",
			cores: 1,
			runs:  []run{{yields: 1}, {yields: 0, err: errB}, {yields: 1, err: errC}, {yields: 0}},
			trace: []string{"0:0", "0:end", "1:end", "2:0", "2:end", "3:end"},
			// Every run completes after an error; the first in slice order
			// is returned.
			maxActive: 1,
			err:       errB,
		},
		{
			name:      "first error in slice order, not in time",
			cores:     0,
			runs:      []run{{yields: 2, err: errC}, {yields: 0, err: errB}},
			trace:     []string{"0:0", "1:end", "0:1", "0:end"},
			maxActive: 2,
			err:       errC,
		},
		{
			name:  "no runs",
			cores: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var trace []string
			active, maxActive := 0, 0
			runs := make([]func(yield func() bool) error, len(tc.runs))
			for i, r := range tc.runs {
				runs[i] = func(yield func() bool) error {
					active++
					maxActive = max(maxActive, active)
					defer func() { active-- }()
					for k := 0; k < r.yields; k++ {
						trace = append(trace, fmt.Sprintf("%d:%d", i, k))
						if !yield() {
							t.Errorf("run %d: yield reported false", i)
						}
					}
					trace = append(trace, fmt.Sprintf("%d:end", i))
					return r.err
				}
			}
			err := Interleave(tc.cores, runs)
			if err != tc.err {
				t.Fatalf("error = %v, want %v", err, tc.err)
			}
			if !slices.Equal(trace, tc.trace) {
				t.Fatalf("trace = %v, want %v", trace, tc.trace)
			}
			if maxActive != tc.maxActive {
				t.Fatalf("max active runs = %d, want %d", maxActive, tc.maxActive)
			}
		})
	}
}
