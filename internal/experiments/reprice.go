package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"bpredpower/internal/cpu"
	"bpredpower/internal/power"
	"bpredpower/internal/workload"
)

// This file splits a run's identity into an execution key and a pricing key,
// and implements the repricer that turns N full simulations into 1 simulation
// plus N closed-form folds.
//
// Execution key: everything that steers the pipeline — predictor config,
// workload, instruction counts, PPD scenario, gating policy, line predictor,
// charge policy, processor config. Two runs with the same execution key
// commit the same instructions on the same cycles and accumulate bit-identical
// per-unit activity counters.
//
// Pricing key: everything that only prices that activity — which array model
// costs the tables, whether the predictor arrays are banked, which physical
// organization is chosen, which conditional-clocking style folds idle cycles.
// None of these are consulted by the pipeline; they exist only inside
// internal/power and internal/frontend at unit-construction and fold time.
//
// A repriced Run is byte-identical to a fully simulated one by construction:
// cpu.NewMeter builds the unit set through the same machineSpec the simulator
// uses, Meter.SetActivity restores the same integer counters, and the read
// accessors evaluate the same closed forms in the same registration order —
// identical float64 operations in an identical sequence.

// PricingKey is the subset of cpu.Options that prices activity without
// affecting execution. The zero value is the canonical base configuration
// (new array model, flat arrays, standard organization search, CC3 gating —
// power.CC3 is GatingStyle's zero value).
type PricingKey struct {
	BankedPredictor bool
	OldArrayModel   bool
	SquarifyClosest bool
	ClockGating     power.GatingStyle
}

// IsBase reports whether pk is the canonical base pricing configuration —
// the one the execution key's single full simulation runs under.
func (pk PricingKey) IsBase() bool { return pk == PricingKey{} }

// SplitOptions factors opt into its execution options (pricing fields zeroed
// to the canonical base) and its pricing key. Applying pk back onto execOpt
// reproduces opt exactly; the activity-invariance property test guards the
// classification.
func SplitOptions(opt cpu.Options) (execOpt cpu.Options, pk PricingKey) {
	pk = PricingKey{
		BankedPredictor: opt.BankedPredictor,
		OldArrayModel:   opt.OldArrayModel,
		SquarifyClosest: opt.SquarifyClosest,
		ClockGating:     opt.ClockGating,
	}
	execOpt = opt
	execOpt.BankedPredictor = false
	execOpt.OldArrayModel = false
	execOpt.SquarifyClosest = false
	execOpt.ClockGating = power.CC3
	return execOpt, pk
}

// applyPricing is SplitOptions' inverse: the execution options of a record
// re-dressed with a concrete pricing key.
func applyPricing(execOpt cpu.Options, pk PricingKey) cpu.Options {
	execOpt.BankedPredictor = pk.BankedPredictor
	execOpt.OldArrayModel = pk.OldArrayModel
	execOpt.SquarifyClosest = pk.SquarifyClosest
	execOpt.ClockGating = pk.ClockGating
	return execOpt
}

// ActivityRecord is what one full simulation of an execution key leaves
// behind: the Run priced under the base pricing key, plus the activity
// vector every other pricing key is folded from. It round-trips through
// JSON exactly (integer counters; float64s print shortest-round-trip), so
// persisted records reprice to the same bytes as fresh ones.
type ActivityRecord struct {
	Run      Run            `json:"run"`
	Activity power.Activity `json:"activity"`
}

// Reprice prices a cached activity record under opt without simulating:
// take the unit set a simulation under opt would build, load the counters,
// evaluate the closed-form accessors. Execution-side fields (accuracy, IPC,
// instruction counts) carry over from the record untouched; only the machine
// label and the five power metrics are recomputed.
//
// The unit set comes from the fold-meter memo, so only the first fold of a
// pricing variant pays for cpu.NewMeter; later folds are a counter load plus
// the accessor reads.
func Reprice(rec ActivityRecord, opt cpu.Options) (Run, error) {
	fm, err := foldMeterFor(opt)
	if err != nil {
		return Run{}, err
	}
	fm.mu.Lock()
	defer fm.mu.Unlock()
	m := fm.m
	if err := m.SetActivity(rec.Activity); err != nil {
		return Run{}, err
	}
	r := rec.Run
	r.Machine = machineLabel(opt)
	r.BpredPower = m.PredictorPower()
	r.TotalPower = m.AveragePower()
	r.BpredEnergy = m.PredictorEnergy()
	r.TotalEnergy = m.TotalEnergy()
	r.EnergyDelay = m.EnergyDelay()
	return r, nil
}

// foldMeterCap bounds the fold-meter memo. A full figure suite or a large
// sweep touches well under this many distinct Options; past it the memo is
// cleared and refilled, which costs rebuilds but never changes a result.
const foldMeterCap = 256

// foldMeter is one memoized unit set. SetActivity overwrites every counter
// the read accessors consult, so a fold on a reused meter evaluates exactly
// what it would on a fresh one; mu serializes folds that share the meter.
type foldMeter struct {
	mu sync.Mutex
	m  *power.Meter
}

// foldMeters memoizes cpu.NewMeter by the full Options — the same key
// runKey uses — so every field that shapes the unit set is part of it.
var foldMeters = struct {
	sync.Mutex
	byOpt map[cpu.Options]*foldMeter
}{byOpt: make(map[cpu.Options]*foldMeter)}

// foldMeterFor returns the memoized unit set for opt, building it on first
// use. The build runs outside the memo lock; two racing builders of one key
// both succeed and the first insert wins.
func foldMeterFor(opt cpu.Options) (*foldMeter, error) {
	foldMeters.Lock()
	fm := foldMeters.byOpt[opt]
	foldMeters.Unlock()
	if fm != nil {
		return fm, nil
	}
	m, err := cpu.NewMeter(opt)
	if err != nil {
		return nil, err
	}
	foldMeters.Lock()
	defer foldMeters.Unlock()
	if fm := foldMeters.byOpt[opt]; fm != nil {
		return fm, nil
	}
	if len(foldMeters.byOpt) >= foldMeterCap {
		clear(foldMeters.byOpt)
	}
	fm = &foldMeter{m: m}
	foldMeters.byOpt[opt] = fm
	return fm, nil
}

// RepriceStats is a harness's activity-path traffic, for CLI display and
// tests: how many base simulations this harness actually ran, and how many
// Runs it produced by folding instead of simulating.
type RepriceStats struct {
	Simulations uint64
	Folds       uint64
}

// RepriceStats reports this harness's own reprice traffic. Simulations
// counts base runs computed by this harness's compute functions (cache and
// store hits are not included — those are exactly the simulations repricing
// avoided). Folds counts Runs produced via Reprice.
func (h *Harness) RepriceStats() RepriceStats {
	return RepriceStats{Simulations: h.actSims.Load(), Folds: h.actFolds.Load()}
}

// resolve is the one sequence from a point to its Run, shared by
// Harness.Simulate and RunCache.Resolve: split opt into its execution options
// and pricing key, get the execution key's activity record from act, and
// return the record's base Run or, for a pricing variant, a fold of it.
// folded reports the latter.
func (c *RunCache) resolve(opt cpu.Options, act func(execOpt cpu.Options) (ActivityRecord, error)) (r Run, folded bool, err error) {
	execOpt, pk := SplitOptions(opt)
	rec, err := act(execOpt)
	if err != nil {
		return Run{}, false, err
	}
	if pk.IsBase() {
		return rec.Run, false, nil
	}
	if r, err = c.fold(rec, opt); err != nil {
		return Run{}, false, err
	}
	return r, true, nil
}

// activity resolves the activity record of an execution key through the
// cache (singleflight + persistent store); a miss runs one full base
// simulation, counted on sims when it is non-nil.
func (c *RunCache) activity(ctx context.Context, b workload.Benchmark, execOpt cpu.Options, rc RunConfig, sims *atomic.Uint64) (ActivityRecord, error) {
	return c.DoActivity(ctx, b.Name, execOpt, rc, func(cctx context.Context) (ActivityRecord, error) {
		if sims != nil {
			sims.Add(1)
		}
		return simulate(cctx, c.Program(b), b, execOpt, rc, chunkInsts)
	})
}

// fold reprices a record under opt and counts the fold on the cache, so
// /metrics sees fold traffic wherever the cache is shared.
func (c *RunCache) fold(rec ActivityRecord, opt cpu.Options) (Run, error) {
	r, err := Reprice(rec, opt)
	if err != nil {
		return Run{}, err
	}
	c.count(func() { c.folds++ })
	return r, nil
}
