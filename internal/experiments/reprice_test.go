package experiments

import (
	"context"
	"reflect"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/power"
	"bpredpower/internal/workload"
)

// pricingMatrix is every pricing-key value the repricer claims is
// execution-invariant: banked x array model x organization search x CC0-CC3.
func pricingMatrix() []PricingKey {
	var pks []PricingKey
	for _, banked := range []bool{false, true} {
		for _, old := range []bool{false, true} {
			for _, sq := range []bool{false, true} {
				for _, style := range []power.GatingStyle{power.CC0, power.CC1, power.CC2, power.CC3} {
					pks = append(pks, PricingKey{
						BankedPredictor: banked,
						OldArrayModel:   old,
						SquarifyClosest: sq,
						ClockGating:     style,
					})
				}
			}
		}
	}
	return pks
}

// The activity-invariance guard: the exported activity vector must be
// bit-identical across every pricing-key value, for a matrix of predictor
// configs. A future option that silently affects execution cannot be
// classified into the pricing key without tripping this.
func TestActivityInvariantUnderPricingKeys(t *testing.T) {
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Program()
	rc := RunConfig{WarmupInsts: 2000, MeasureInsts: 4000}
	for _, spec := range []bpred.Spec{bpred.Bim4k, bpred.Gsh16k12, bpred.Hybrid1} {
		t.Run(spec.Name, func(t *testing.T) {
			execOpt := cpu.Options{Predictor: spec}
			var base power.Activity
			var baseStats cpu.Stats
			for i, pk := range pricingMatrix() {
				sim := cpu.MustNew(prog, applyPricing(execOpt, pk))
				sim.Run(rc.WarmupInsts)
				sim.ResetMeasurement()
				sim.Run(rc.MeasureInsts)
				act := sim.Meter().Activity()
				st := *sim.Stats()
				sim.Release()
				if i == 0 {
					base, baseStats = act, st
					continue
				}
				if !reflect.DeepEqual(act, base) {
					t.Fatalf("pricing key %+v changed the activity vector", pk)
				}
				if st != baseStats {
					t.Fatalf("pricing key %+v changed execution stats", pk)
				}
			}
		})
	}
}

// A repriced Run must equal the fully simulated one field for field — same
// float64 bits, same label — for every pricing key.
func TestRepriceMatchesFullSimulation(t *testing.T) {
	bench, err := workload.ByName("176.gcc")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{WarmupInsts: 2000, MeasureInsts: 4000}
	repriced := NewHarness(rc)
	repriced.Parallel = 1
	for _, pk := range pricingMatrix() {
		opt := applyPricing(cpu.Options{Predictor: bpred.Hybrid1}, pk)
		got := repriced.Simulate(bench, opt)
		if err := repriced.Err(); err != nil {
			t.Fatal(err)
		}
		want := directRun(t, repriced.Cache.Program(bench), bench, opt, rc)
		if diffs := runDiff(got, want); len(diffs) > 0 {
			t.Fatalf("pricing key %+v: repriced run differs from simulation: %v", pk, diffs)
		}
	}
	st := repriced.Cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("repricing harness ran %d simulations, want 1", st.Misses)
	}
	// Exactly one matrix entry is the base key (all false, CC3); every
	// other variant must have been folded, not simulated.
	if want := uint64(len(pricingMatrix()) - 1); st.RepriceFolds != want {
		t.Fatalf("folds = %d, want %d", st.RepriceFolds, want)
	}
}

// The acceptance criterion: a plan spanning many pricing-key variants of one
// execution key performs exactly one full simulation, observed through the
// shared cache's hooks, and the folds are visible in the cache stats.
func TestPrefetchOneSimulationPerExecutionKey(t *testing.T) {
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{WarmupInsts: 2000, MeasureInsts: 4000}
	sims := 0
	cache := NewRunCache(64)
	cache.Hooks.BeforeRun = func(context.Context) { sims++ }

	var jobs []Job
	opts := make([]cpu.Options, 0, len(pricingMatrix()))
	for _, pk := range pricingMatrix() {
		opt := applyPricing(cpu.Options{Predictor: bpred.Gsh16k12}, pk)
		opts = append(opts, opt)
		jobs = append(jobs, Job{Bench: bench, Opt: opt})
	}

	h := NewHarness(rc)
	h.Parallel = 1 // hooks counter is unsynchronized; keep computes serial
	h.Cache = cache
	h.Prefetch(jobs)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}
	for _, opt := range opts {
		if r := h.Simulate(bench, opt); r.Benchmark == "" {
			t.Fatalf("missing run for %+v", opt)
		}
	}
	if sims != 1 {
		t.Fatalf("%d pricing variants ran %d full simulations, want exactly 1", len(opts), sims)
	}
	cs := cache.Stats()
	if cs.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", cs.Misses)
	}
	if cs.RepriceFolds != uint64(len(opts)-1) {
		t.Fatalf("RepriceFolds = %d, want %d", cs.RepriceFolds, len(opts)-1)
	}
	if cs.Entries != 1 {
		t.Fatalf("Entries = %d, want 1", cs.Entries)
	}

	// A second harness against the same cache refetches everything from the
	// one activity record: still zero new simulations.
	h2 := NewHarness(rc)
	h2.Parallel = 1
	h2.Cache = cache
	h2.Prefetch(jobs)
	if err := h2.Err(); err != nil {
		t.Fatal(err)
	}
	if sims != 1 {
		t.Fatalf("second harness re-simulated: %d computes", sims)
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("second harness missed the cache: %d misses, want 1", st.Misses)
	}
}

// SplitOptions must round-trip: exec options re-dressed with the pricing key
// reproduce the original, and the exec options are themselves base-priced.
func TestSplitOptionsRoundTrip(t *testing.T) {
	for _, pk := range pricingMatrix() {
		opt := applyPricing(cpu.Options{Predictor: bpred.TAGE64k, LinePredictor: true}, pk)
		execOpt, got := SplitOptions(opt)
		if got != pk {
			t.Fatalf("pricing key %+v round-tripped to %+v", pk, got)
		}
		if applyPricing(execOpt, pk) != opt {
			t.Fatalf("applyPricing(SplitOptions(%+v)) != original", opt)
		}
		if _, basePk := SplitOptions(execOpt); !basePk.IsBase() {
			t.Fatalf("exec options %+v are not base-priced", execOpt)
		}
	}
}
