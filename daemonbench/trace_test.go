package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // outlives the parent: only 90..100 counts
		{Name: "grandchild", Start: 12, End: 14, Parent: 1},
		{Name: "other root", Start: 60, End: 70, Parent: -1}, // not a child
	}
	got := selfTimes(spans)
	want := []int64{100 - (40 + 10), 20 - 2, 30, 30, 2, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerParentsSpansPerGoroutine(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", 0)
	inner := tr.begin("inner", 3)
	done := make(chan int)
	go func() {
		idx := tr.begin("elsewhere", 0)
		tr.end(idx)
		done <- idx
	}()
	other := <-done
	tr.end(inner)
	after := tr.begin("sibling", 0)
	tr.end(after)
	tr.end(outer)

	spans := tr.snapshot()
	for _, tc := range []struct {
		idx, parent int
	}{{outer, -1}, {inner, outer}, {other, -1}, {after, outer}} {
		if got := spans[tc.idx].Parent; got != tc.parent {
			t.Errorf("span %s: parent %d, want %d", spans[tc.idx].Name, got, tc.parent)
		}
		if spans[tc.idx].End < spans[tc.idx].Start {
			t.Errorf("span %s ends before it starts", spans[tc.idx].Name)
		}
	}
	if spans[inner].Ticket != 3 {
		t.Errorf("inner span ticket %d, want 3", spans[inner].Ticket)
	}
}

func TestTimeSharesAttributeEachInstantOnce(t *testing.T) {
	const id = 9
	spans := []span{
		{Name: spanSubmit, Start: 0, End: 10, Parent: -1, Ticket: id},
		{Name: spanOpenSession, Start: 20, End: 25, Parent: -1, Ticket: id},
		{Name: spanRoundWait, Start: 30, End: 40, Parent: -1, Ticket: id},
		{Name: spanPartitionWait, Start: 40, End: 50, Parent: -1, Ticket: id},
		{Name: spanStream, Start: 50, End: 90, Parent: -1, Ticket: id},
		{Name: spanClose, Start: 90, End: 100, Parent: -1, Ticket: id},
	}
	acc := &layerCounters{queueWait: map[int]time.Duration{id: 10}, runtime: map[int]time.Duration{id: 80}}
	shares, remainder, n := timeShares(spans, acc)
	if n != 1 {
		t.Fatalf("%d tickets, want 1", n)
	}
	want := map[string]float64{
		"server": 0.10, "queue": 0.10, "core_other": 0.15, "round_wait": 0.10,
		"partition_wait": 0.10, "stream": 0.40, "ticketlog": 0, "backend_unsplit": 0,
	}
	for cat, w := range want {
		if math.Abs(shares[cat]-w) > 1e-9 {
			t.Errorf("share %s = %g, want %g", cat, shares[cat], w)
		}
	}
	// 25..30: the driver goroutine had not yet begun its first iteration.
	if math.Abs(remainder-0.05) > 1e-9 {
		t.Errorf("remainder %g, want 0.05", remainder)
	}
}

func TestIntervalSubtract(t *testing.T) {
	got := subtract([]interval{{0, 10}, {20, 30}}, []interval{{2, 4}, {8, 22}, {25, 26}})
	want := []interval{{0, 2}, {4, 8}, {22, 25}, {26, 30}}
	if len(got) != len(want) {
		t.Fatalf("subtract = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subtract = %v, want %v", got, want)
		}
	}
}
