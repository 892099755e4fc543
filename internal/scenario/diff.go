package scenario

// Differential checking for generated scripts: one script replayed across
// configurations that must not change its observable behaviour, with every
// invariant the harness owns applied to each pair.

import (
	"fmt"

	"graphm/internal/core"
)

// DiffOptions sizes the differential environment. Every run of one check
// gets a fresh Env over the same seeded graph (runs mutate the memory pool
// and cache counters).
type DiffOptions struct {
	NumV, NumE int
	// GridP is the grid side; the layout's non-empty partition count (what
	// scripts anchor against) is Env.NonEmptyPartitions.
	GridP   int
	EnvSeed int64
	// LLCBytes, MemBudget size the simulated substrate.
	LLCBytes, MemBudget int64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.NumV <= 0 {
		o.NumV = 300
	}
	if o.NumE <= 0 {
		o.NumE = 2200
	}
	if o.GridP <= 0 {
		o.GridP = 3
	}
	if o.EnvSeed == 0 {
		o.EnvSeed = 17
	}
	if o.LLCBytes <= 0 {
		o.LLCBytes = 32 << 10
	}
	if o.MemBudget <= 0 {
		o.MemBudget = 64 << 20
	}
	return o
}

// NewEnv builds a fresh environment for one run under these options.
func (o DiffOptions) NewEnv() (Env, error) {
	o = o.withDefaults()
	env, _, err := GenEnv("diff", o.NumV, o.NumE, o.GridP, o.EnvSeed, o.LLCBytes, o.MemBudget)
	return env, err
}

// GenDefaults returns the generator options matching this environment, so
// generated barriers and edge endpoints line up with the layout scripts run
// against.
func (o DiffOptions) GenDefaults() (GenOptions, error) {
	env, err := o.NewEnv()
	if err != nil {
		return GenOptions{}, err
	}
	return GenOptions{Partitions: env.NonEmptyPartitions(), NumV: o.withDefaults().NumV}, nil
}

// DiffCheck replays one generated script across configurations and
// applies the package invariants to every pair against the static
// baseline:
//
//   - CheckClean on every run (no pins or orphaned snapshot overrides);
//   - CheckWorkEqual and CheckOutputsEqual between static and adaptive
//     chunk labelling;
//   - for single-job scripts additionally CheckSimEqual between the
//     run-length accounting hot path and the per-edge reference model —
//     the configuration whose LLC access schedule is deterministic.
//
// A nil return means every invariant held; an error is a differential
// finding (and, from the fuzzer, ships as a minimized corpus seed).
func DiffCheck(gs GenScript, o DiffOptions) error {
	o = o.withDefaults()
	script, err := gs.Script()
	if err != nil {
		return fmt.Errorf("scenario: compile: %w", err)
	}
	if env, err := o.NewEnv(); err != nil {
		return err
	} else if p := env.NonEmptyPartitions(); p != gs.Partitions {
		return fmt.Errorf("scenario: script planned for %d partitions but the environment has %d — regenerate the corpus entry",
			gs.Partitions, p)
	}

	runOne := func(adaptive, perEdge bool) (*Result, error) {
		env, err := o.NewEnv()
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(o.LLCBytes)
		cfg.Cores = 1
		cfg.AdaptiveChunking = adaptive
		cfg.PerEdgeSim = perEdge
		res, err := Run(env, cfg, script)
		if err != nil {
			return nil, err
		}
		if err := CheckClean(env, res); err != nil {
			return nil, err
		}
		return res, nil
	}

	base, err := runOne(false, false)
	if err != nil {
		return fmt.Errorf("scenario: baseline (static): %w", err)
	}
	adaptive, err := runOne(true, false)
	if err != nil {
		return fmt.Errorf("scenario: variant adaptive: %w", err)
	}
	if err := CheckWorkEqual(base, adaptive); err != nil {
		return fmt.Errorf("scenario: adaptive vs baseline: %w", err)
	}
	if err := CheckOutputsEqual(base, adaptive); err != nil {
		return fmt.Errorf("scenario: adaptive vs baseline: %w", err)
	}
	if gs.SingleJob() {
		perEdge, err := runOne(false, true)
		if err != nil {
			return fmt.Errorf("scenario: variant per-edge-sim: %w", err)
		}
		if err := CheckSimEqual(base, perEdge); err != nil {
			return fmt.Errorf("scenario: per-edge vs run-length accounting: %w", err)
		}
		if err := CheckWorkEqual(base, perEdge); err != nil {
			return fmt.Errorf("scenario: per-edge vs run-length accounting: %w", err)
		}
		if err := CheckOutputsEqual(base, perEdge); err != nil {
			return fmt.Errorf("scenario: per-edge vs run-length accounting: %w", err)
		}
	}
	return nil
}
