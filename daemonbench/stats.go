package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It is the convention internal/slo and the replay reports use.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(len(sorted), p)
	return sorted[rank-1]
}

// nearestRank is the 1-based rank percentile p picks among n samples. The
// epsilon keeps float error from pushing an exact product up a rank
// (99.9% of 10000 computes as 9990.000000000002).
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailCandidates are the percentiles the tail rule chooses from, highest
// first.
var tailCandidates = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile:
// with fewer, the "tail" is a handful of outliers and moves run to run.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile that leaves at
// least minBeyond of n samples strictly beyond its nearest rank. With too
// few samples for any candidate it falls back to the median and reports ok
// false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n-nearestRank(n, c) >= minBeyond {
			return c, true
		}
	}
	return 50, false
}

// tail is a tail-latency reading: which percentile, over how many samples.
type tail struct {
	P     float64 `json:"percentile"`
	Value float64 `json:"value"`
	N     int     `json:"samples"`
	// Full is false when there were too few samples for the tail rule and
	// the value is the median.
	Full bool `json:"full"`
}

// tailOf applies the tail rule to xs (any order).
func tailOf(xs []float64) tail {
	s := sortedCopy(xs)
	p, ok := tailPercentile(len(s))
	return tail{P: p, Value: percentile(s, p), N: len(s), Full: ok}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a counter pair with nothing to divide).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// poissonSchedule returns the send offsets of a Poisson arrival process
// with the given rate over the given number of one-second windows,
// conditioned on exactly round(rate) arrivals in every window: within a
// window the arrivals are the order statistics of uniform draws (the law of
// a Poisson process given its count), across windows the count does not
// wander. Holding each second's count removes the slow swings in offered
// load that otherwise decide most of a short run's queueing, so runs with
// different seeds offer the same load. The same seed gives the same
// schedule.
func poissonSchedule(seed int64, rate float64, windows int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	perWindow := int(math.Round(rate))
	out := make([]time.Duration, 0, perWindow*windows)
	win := make([]float64, perWindow)
	for w := 0; w < windows; w++ {
		for i := range win {
			win[i] = rng.Float64()
		}
		sort.Float64s(win)
		for _, u := range win {
			out = append(out, time.Duration((float64(w)+u)*float64(time.Second)))
		}
	}
	return out
}

// parseProm reads Prometheus text exposition (format 0.0.4) into a map from
// series to value, where a series is the metric name plus its label set
// exactly as written (`graphm_degraded{cause="wal"}`). Comment and blank
// lines are skipped; a malformed sample line is an error.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// The value follows the series, after the label set if there is one
		// (label values may contain spaces).
		cut := strings.LastIndexByte(text, '}')
		if cut < 0 {
			cut = strings.IndexByte(text, ' ')
		} else {
			cut++
		}
		if cut <= 0 || cut >= len(text) {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		fields := strings.Fields(text[cut:])
		if len(fields) == 0 || len(fields) > 2 { // value [timestamp]
			return nil, fmt.Errorf("metrics line %d: bad sample %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[strings.TrimSpace(text[:cut])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read metrics: %w", err)
	}
	return out, nil
}
