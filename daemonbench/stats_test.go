package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 10, 1},
		{ten, 0.1, 1},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99.9, 7},
		{nil, 50, 0},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{20000, 99.9, true}, // rank 19980: 20 beyond
		{10000, 99.9, true}, // rank 9990: 10 beyond
		{9999, 99, true},    // rank 9990 at p99.9: 9 beyond
		{1000, 99, true},
		{450, 95, true}, // p98 rank 441: 9 beyond
		{280, 95, true}, // rank 266: 14 beyond
		{160, 90, true}, // p95 rank 152: 8 beyond
		{40, 75, true},  // p80 rank 32: 8 beyond; p75 rank 30: 10
		{20, 50, true},  // rank 10: 10 beyond
		{19, 50, false},
		{0, 50, false},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && tc.n-nearestRank(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond it", tc.n, p, minBeyond)
		}
	}

	xs := make([]float64, 280)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: tailOf must sort
	}
	got := tailOf(xs)
	want := tail{P: 95, Value: 266, N: 280, Full: true}
	if got != want {
		t.Errorf("tailOf = %+v, want %+v", got, want)
	}
}

func TestPoissonScheduleSameSeedSameSchedule(t *testing.T) {
	const rate, windows = 25, 6
	a := poissonSchedule(7, rate, windows)
	if b := poissonSchedule(7, rate, windows); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, rate, windows); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != rate*windows {
		t.Fatalf("%d arrivals, want %d", len(a), rate*windows)
	}
	perWindow := make([]int, windows)
	for i, off := range a {
		if i > 0 && off < a[i-1] {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, off, i-1, a[i-1])
		}
		w := int(off / time.Second)
		if w < 0 || w >= windows {
			t.Fatalf("arrival at %v outside the %d-second schedule", off, windows)
		}
		perWindow[w]++
	}
	for w, n := range perWindow {
		if n != rate {
			t.Errorf("window %d holds %d arrivals, want %d", w, n, rate)
		}
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP graphm_jobs_submitted_total Jobs accepted by Submit.
# TYPE graphm_jobs_submitted_total counter
graphm_jobs_submitted_total 42

graphm_queue_depth 0
graphm_uptime_seconds 1.25e+01
graphm_degraded{cause="disk full"} 1
graphm_queue_wait_seconds{quantile="0.99"} 0.003 1700000000000
graphm_queue_wait_seconds_sum 0.5
`
	got, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"graphm_jobs_submitted_total":                42,
		"graphm_queue_depth":                         0,
		"graphm_uptime_seconds":                      12.5,
		`graphm_degraded{cause="disk full"}`:         1,
		`graphm_queue_wait_seconds{quantile="0.99"}`: 0.003,
		"graphm_queue_wait_seconds_sum":              0.5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseProm = %v, want %v", got, want)
	}

	for _, bad := range []string{"graphm_no_value", "graphm_x notanumber", "graphm_y 1 2 3", `graphm_z{a="b"}`} {
		if _, err := parseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed sample", bad)
		}
	}
}
