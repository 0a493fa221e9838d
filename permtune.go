package inplace

import (
	"fmt"
	"reflect"
	"time"

	"inplace/internal/parallel"
	"inplace/internal/stats"
	"inplace/internal/tensor"
	"inplace/internal/tune"
)

// Autotuning for PermuteAxes: TunePermute measures the planner's
// strategy candidates (both factorizations, plus the cycle fallback on
// small tensors) across the worker budget and records the winner in the
// wisdom table's perm section, keyed by the canonical (dims, perm) form
// so every raw shape that reduces to the same passes shares the entry.

// PermuteTuneResult reports the winning decision of one TunePermute
// call. Dims and Perm are the canonical forms the decision is keyed
// under, which may have lower rank than the tuned shape.
type PermuteTuneResult struct {
	Dims       string
	Perm       string
	ElemSize   int
	MaxWorkers int // resolved budget the decision is keyed under

	Strategy string
	Workers  int
	GBps     float64
}

// String summarizes the result.
func (r PermuteTuneResult) String() string {
	return fmt.Sprintf("tuned %s perm %s (%dB, budget %d): %s workers=%d (%.2f GB/s)",
		r.Dims, r.Perm, r.ElemSize, r.MaxWorkers, r.Strategy, r.Workers, r.GBps)
}

// cycleTuneMaxBytes bounds the tensors the tuner will measure the cycle
// strategy on: its O(n·L) index walk is only ever competitive on small
// tensors, and measuring it on large ones would dominate the tuning
// budget for no information.
const cycleTuneMaxBytes = 1 << 21

// TunePermute measures the real strategy space for permuting the axes
// of row-major dims tensors of T with perm — greedy vs. inverse
// factorization, worker counts at 1 and the budget, plus the
// cycle-leader fallback on small tensors — records the winner in the
// process wisdom table's perm section, and returns it. Subsequent
// permutation planners for any shape with the same canonical form (with
// Options.Tuning at WisdomAuto) use the measured decision; SaveWisdom
// persists it for future processes.
func TunePermute[T any](dims, perm []int, cfgs ...TuneConfig) (PermuteTuneResult, error) {
	c := TuneConfig{}
	if len(cfgs) > 0 {
		c = cfgs[0]
	}
	cfg := c.internal()
	if cfg.Reps <= 0 {
		cfg.Reps = 5
	}
	if cfg.MinSample <= 0 {
		cfg.MinSample = time.Millisecond
	}
	if cfg.MaxCandidate <= 0 {
		cfg.MaxCandidate = 80 * time.Millisecond
	}
	elemSize := int(reflect.TypeFor[T]().Size())
	budget := parallel.Workers(c.Workers)

	// Validate and canonicalize once; an identity permutation has nothing
	// to measure.
	probe, err := planPermute(dims, perm, Options{Tuning: WisdomOff}, elemSize, "")
	if err != nil {
		return PermuteTuneResult{}, err
	}
	if probe.Strategy() == permStrategyNoop {
		return PermuteTuneResult{}, fmt.Errorf("%w (identity permutation)", ErrNoTuneResult)
	}

	strategies := []string{tensor.StrategyGreedy, tensor.StrategyInverse}
	if probe.size*elemSize <= cycleTuneMaxBytes {
		strategies = append(strategies, tensor.StrategyCycle)
	}
	workerSet := []int{1}
	if budget > 1 {
		workerSet = append(workerSet, budget)
	}

	data := make([]T, probe.size)
	best := tune.PermDecision{}
	bestCost := 0.0
	for _, strat := range strategies {
		for _, w := range workerSet {
			if strat == tensor.StrategyCycle && w > 1 {
				continue // the cycle walk is inherently sequential
			}
			pp, err := planPermute(dims, perm, Options{Workers: w, Tuning: WisdomOff}, elemSize, strat)
			if err != nil {
				return PermuteTuneResult{}, err
			}
			pl := newPermutePlanner[T](pp)
			run := func() {
				// Permutations are data-independent, so timing does not
				// care that successive runs keep permuting the buffer.
				if err := pl.Execute(data); err != nil {
					panic(err)
				}
			}
			run() // warm the scratch arenas
			samples := tune.Measure(run, tune.MeasureOpts{
				Reps:      cfg.Reps,
				MinSample: cfg.MinSample,
				MaxTotal:  cfg.MaxCandidate,
			})
			cost := stats.Median(samples)
			if bestCost == 0 || cost < bestCost {
				best = tune.PermDecision{Strategy: strat, Workers: w}
				bestCost = cost
			}
		}
	}
	if bestCost <= 0 {
		return PermuteTuneResult{}, fmt.Errorf("%w (%s perm %s)", ErrNoTuneResult, probe.canonDims, probe.canonPerm)
	}
	// One pass reads and writes the tensor once; ns/op and GB/s share
	// the 1e9 factor (the 2D tuner's convention).
	best.GBps = 2 * float64(probe.size) * float64(elemSize) / bestCost

	k := tune.PermKey{Dims: probe.canonDims, Perm: probe.canonPerm, ElemSize: elemSize, MaxWorkers: budget}
	recordWisdom(&wisdomTab.t.Perm, k, best)
	return PermuteTuneResult{
		Dims: k.Dims, Perm: k.Perm, ElemSize: elemSize, MaxWorkers: budget,
		Strategy: best.Strategy, Workers: best.Workers, GBps: best.GBps,
	}, nil
}

// TunePermuteElem is TunePermute for callers that know the element width
// in bytes but not the type — raw-buffer CLIs like cmd/xposetune.
// Supported widths are 1, 2, 4 and 8.
func TunePermuteElem(dims, perm []int, elemSize int, cfgs ...TuneConfig) (PermuteTuneResult, error) {
	switch elemSize {
	case 1:
		return TunePermute[uint8](dims, perm, cfgs...)
	case 2:
		return TunePermute[uint16](dims, perm, cfgs...)
	case 4:
		return TunePermute[uint32](dims, perm, cfgs...)
	case 8:
		return TunePermute[uint64](dims, perm, cfgs...)
	default:
		return PermuteTuneResult{}, fmt.Errorf("%w: %d (want 1, 2, 4 or 8)", ErrElemSize, elemSize)
	}
}

// PermWisdomLen returns the number of permutation decisions in the
// process wisdom table.
func PermWisdomLen() int {
	wisdomTab.mu.RLock()
	defer wisdomTab.mu.RUnlock()
	return wisdomTab.t.Perm.Len()
}
