package scenario

import (
	"fmt"

	"graphm/internal/algorithms"
	"graphm/internal/engine"
)

// RampOptions parameterizes the canonical attach/detach concurrency ramp.
type RampOptions struct {
	// Partitions is the layout's partition count; attach anchors must stay
	// inside the first round, so RampJobs is capped at Partitions-1.
	Partitions int
	// RampJobs is how many short jobs attach mid-round, one per successive
	// partition barrier of the first anchor.
	RampJobs int
	// AnchorIters / ShortIters are the PageRank iteration budgets of the two
	// long anchors and the ramp jobs (anchor 2 runs WCC; its iteration count
	// is convergence-driven).
	AnchorIters int
	ShortIters  int
	// DetachLast withdraws the last ramp job early in round 2 — the scripted
	// cancellation leg of the ramp.
	DetachLast bool
}

// RampScript builds the canonical dynamic-concurrency ramp: two long-lived
// anchors start as a batch, RampJobs short PageRank jobs attach mid-round at
// the first anchor's successive partition barriers of round one, run their
// iterations alongside, converge and leave — so attendance climbs from 2 to
// RampJobs+2 and falls back. All attach anchors land strictly inside round
// one and every program keeps all partitions active while events fire,
// which is what makes the script deterministic (see the package comment's
// rules).
//
// Job IDs: anchors are 1 (PageRank) and 2 (WCC); ramp jobs are 11..10+n.
func RampScript(o RampOptions) (Script, error) {
	if o.Partitions < 2 {
		return Script{}, fmt.Errorf("scenario: ramp needs >= 2 partitions, got %d", o.Partitions)
	}
	if o.RampJobs < 1 || o.RampJobs > o.Partitions-1 {
		return Script{}, fmt.Errorf("scenario: ramp jobs must be in [1, partitions-1] = [1, %d], got %d",
			o.Partitions-1, o.RampJobs)
	}
	if o.AnchorIters < 3 || o.ShortIters < 2 || o.ShortIters >= o.AnchorIters {
		return Script{}, fmt.Errorf("scenario: need anchorIters >= 3 and 2 <= shortIters < anchorIters, got %d/%d",
			o.AnchorIters, o.ShortIters)
	}
	pagerank := func(iters int) func() engine.Program {
		return func() engine.Program {
			pr := algorithms.NewPageRank(0.85, iters)
			pr.Tolerance = 1e-12
			return pr
		}
	}
	s := Script{
		Initial: []JobSpec{
			{ID: 1, Seed: 1, New: pagerank(o.AnchorIters)},
			{ID: 2, Seed: 2, New: func() engine.Program { return algorithms.NewWCC(1000) }},
		},
	}
	for i := 0; i < o.RampJobs; i++ {
		s.Events = append(s.Events, Event{
			AfterJob:      1,
			AfterBarriers: i + 1,
			Kind:          Attach,
			Job:           JobSpec{ID: 11 + i, Seed: int64(11 + i), New: pagerank(o.ShortIters)},
		})
	}
	if o.DetachLast {
		// Early in round 2: past the round-1 boundary, before the round's
		// final partition.
		s.Events = append(s.Events, Event{
			AfterJob:      1,
			AfterBarriers: o.Partitions + 2,
			Kind:          Detach,
			Target:        10 + o.RampJobs,
		})
	}
	return s, nil
}
