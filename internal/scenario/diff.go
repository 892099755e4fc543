package scenario

// Differential checking for generated scripts: one script replayed across
// executor configurations that must not change its observable behaviour,
// with every invariant the harness owns applied to each pair.

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
	// Workers is the executor width of the widest variant (default 3).
	Workers int
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
	if o.Workers <= 0 {
		o.Workers = 3
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

// diffVariant is one executor configuration a script is replayed under.
type diffVariant struct {
	name     string
	workers  int
	adaptive bool
}

// DiffCheck replays one generated script across executor configurations and
// applies the package invariants to every pair against the serial static
// baseline:
//
//   - CheckClean on every run (no pins, prefetch leaks, or orphaned
//     snapshot overrides);
//   - CheckWorkEqual and CheckOutputsEqual between the serial driver
//     and the worker-pool executor (widths 1 and Workers), static vs
//     adaptive chunk labelling, and the combination;
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

	runOne := func(workers int, adaptive, perEdge bool) (*Result, error) {
		env, err := o.NewEnv()
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(o.LLCBytes)
		cfg.Cores = 1
		cfg.Workers = workers
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

	base, err := runOne(0, false, false)
	if err != nil {
		return fmt.Errorf("scenario: baseline (serial, static): %w", err)
	}
	variants := []diffVariant{
		{"workers=1", 1, false},
		{fmt.Sprintf("workers=%d", o.Workers), o.Workers, false},
		{"adaptive", 0, true},
		{fmt.Sprintf("workers=%d+adaptive", o.Workers), o.Workers, true},
	}
	for _, v := range variants {
		res, err := runOne(v.workers, v.adaptive, false)
		if err != nil {
			return fmt.Errorf("scenario: variant %s: %w", v.name, err)
		}
		if err := CheckWorkEqual(base, res); err != nil {
			return fmt.Errorf("scenario: %s vs baseline: %w", v.name, err)
		}
		if err := CheckOutputsEqual(base, res); err != nil {
			return fmt.Errorf("scenario: %s vs baseline: %w", v.name, err)
		}
	}
	if gs.SingleJob() {
		perEdge, err := runOne(0, false, true)
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

// stripJobs returns a shallow copy of res without the dropped job IDs, so
// a comparison can scope itself to the jobs whose behaviour is contractually
// identical between two configurations.
func stripJobs(res *Result, drop map[int]bool) *Result {
	if len(drop) == 0 {
		return res
	}
	out := *res
	out.Jobs = make(map[int]*JobResult, len(res.Jobs))
	for id, j := range res.Jobs {
		if !drop[id] {
			out.Jobs[id] = j
		}
	}
	return &out
}

// ShardDiffCheck is the scale-out half of the differential matrix. The same
// script is replayed at every count in shardCounts, and every pair of group
// runs must do identical schedule-independent work and produce bit-identical
// outputs — the shard package's determinism contract, with the first count
// (canonically 1) as the reference. An unsharded core.System run is checked
// alongside: every job that was present from the start must match it in
// work and output bits; jobs attached mid-stream are excluded there — a
// single system splices a joiner into the round in flight (appendix
// order), while a group queues it for the next round (ascending order), so
// a joiner is the one place the group is order-faithful to itself rather
// than to the single system.
// All runs use the Formula (5) scheduler off, matching what shard.New
// forces (per-shard priority orders do not concatenate to any single-system
// order), and every run must exit clean.
func ShardDiffCheck(gs GenScript, o DiffOptions, shardCounts []int) error {
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
	if len(shardCounts) == 0 {
		return fmt.Errorf("scenario: ShardDiffCheck needs at least one shard count")
	}
	cfg := core.DefaultConfig(o.LLCBytes)
	cfg.Cores = 1
	cfg.Scheduler = false

	// Jobs attached mid-stream are excluded from the vs-unsharded
	// comparison (not from the cross-count one): the single system splices
	// them into the round in flight, so their first iteration streams
	// partitions in appendix order — which shifts their outputs bit-wise
	// and, for programs that propagate state in place within an iteration
	// (WCC), even their convergence round count.
	attached := make(map[int]bool)
	for _, e := range gs.Events {
		if e.Kind == Attach {
			attached[e.Job.ID] = true
		}
	}

	env, err := o.NewEnv()
	if err != nil {
		return err
	}
	unsharded, err := Run(env, cfg, script)
	if err != nil {
		return fmt.Errorf("scenario: unsharded reference: %w", err)
	}
	if err := CheckClean(env, unsharded); err != nil {
		return fmt.Errorf("scenario: unsharded reference: %w", err)
	}
	var base *Result
	for _, n := range shardCounts {
		env, err := o.NewEnv()
		if err != nil {
			return err
		}
		res, err := RunSharded(env, cfg, script, n)
		if err != nil {
			return fmt.Errorf("scenario: shards=%d: %w", n, err)
		}
		if err := CheckClean(env, res); err != nil {
			return fmt.Errorf("scenario: shards=%d: %w", n, err)
		}
		if err := CheckWorkEqual(stripJobs(unsharded, attached), stripJobs(res, attached)); err != nil {
			return fmt.Errorf("scenario: shards=%d vs unsharded: %w", n, err)
		}
		if err := CheckOutputsEqual(stripJobs(unsharded, attached), stripJobs(res, attached)); err != nil {
			return fmt.Errorf("scenario: shards=%d vs unsharded: %w", n, err)
		}
		if base == nil {
			base = res
			continue
		}
		if err := CheckWorkEqual(base, res); err != nil {
			return fmt.Errorf("scenario: shards=%d vs shards=%d: %w", n, shardCounts[0], err)
		}
		if err := CheckOutputsEqual(base, res); err != nil {
			return fmt.Errorf("scenario: shards=%d vs shards=%d: %w", n, shardCounts[0], err)
		}
	}
	return nil
}
