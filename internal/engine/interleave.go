package engine

import "iter"

// Interleave runs every run to completion, stepping the active runs
// round-robin from the calling goroutine: each step resumes one run (as an
// iter.Pull coroutine) and waits until its next yield or its return, so no
// two runs, nor a run and the caller, ever execute at once. This is the
// time-slicing an OS gives concurrent engine processes, made deterministic:
// the baselines' concurrent jobs share one simulated LLC and one memory
// pool, and stepping them in a fixed order gives those shared models a
// single writer and every simulated number one value.
//
// At most cores runs are active at once (cores <= 0 means all of them). A
// queued run takes the first free slot in slice order, and starts stepping
// in the round after the one that freed it. Every run completes whatever
// the others return, so yield always reports true and a run may ignore it.
// The first error in slice order is returned.
func Interleave(cores int, runs []func(yield func() bool) error) error {
	if cores <= 0 || cores > len(runs) {
		cores = len(runs)
	}
	errs := make([]error, len(runs))
	slots := make([]func() (struct{}, bool), cores)
	next := 0
	admit := func(s int) {
		if next == len(runs) {
			slots[s] = nil
			return
		}
		i := next
		next++
		slots[s], _ = iter.Pull(func(yield func(struct{}) bool) {
			errs[i] = runs[i](func() bool { return yield(struct{}{}) })
		})
	}
	for s := range slots {
		admit(s)
	}
	for active := cores; active > 0; {
		for s, step := range slots {
			if step == nil {
				continue
			}
			if _, ok := step(); !ok {
				admit(s)
				if slots[s] == nil {
					active--
				}
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
