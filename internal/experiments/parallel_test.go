package experiments

import (
	"bytes"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/power"
	"bpredpower/internal/workload"
)

// TestParallelMatchesSerial regenerates Figure 5 and Figure 19 with one
// worker and with eight and requires byte-identical output — the harness's
// determinism contract, exercised under -race by the ordinary test run.
func TestParallelMatchesSerial(t *testing.T) {
	rc := RunConfig{WarmupInsts: 2000, MeasureInsts: 5000}
	render := func(parallel int) string {
		h := NewHarness(rc)
		h.Parallel = parallel
		var buf bytes.Buffer
		Figure5(h, &buf)
		Figure19(h, &buf)
		return buf.String()
	}
	serial := render(1)
	par := render(8)
	if serial != par {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
	if serial == "" {
		t.Error("empty figure output")
	}
}

// TestPrefetchMemoizes checks Prefetch fills the same cache Simulate reads:
// after prefetching a plan, the figure's Simulate calls must all hit.
func TestPrefetchMemoizes(t *testing.T) {
	h := NewHarness(RunConfig{WarmupInsts: 2000, MeasureInsts: 4000})
	b, _ := workload.ByName("164.gzip")
	jobs := []Job{
		{b, cpu.Options{Predictor: bpred.Bim4k}},
		{b, cpu.Options{Predictor: bpred.Bim4k}}, // duplicate: simulated once
		{b, cpu.Options{Predictor: bpred.Gsh16k12}},
	}
	h.Prefetch(jobs)
	if st := h.Cache.Stats(); st.Entries != 2 || st.Misses != 2 {
		t.Errorf("expected 2 cached records from 2 misses after Prefetch, have %d entries after %d misses", st.Entries, st.Misses)
	}
	want := h.Simulate(b, cpu.Options{Predictor: bpred.Bim4k})
	if st := h.Cache.Stats(); st.Misses != 2 {
		t.Errorf("Simulate after Prefetch missed the cache: %d misses", st.Misses)
	}
	ref := NewHarness(h.RC).Simulate(b, cpu.Options{Predictor: bpred.Bim4k})
	if want != ref {
		t.Error("prefetched run differs from a fresh simulation")
	}
	// A second Prefetch of the same plan simulates nothing.
	h.Prefetch(jobs)
	if st := h.Cache.Stats(); st.Entries != 2 || st.Misses != 2 {
		t.Errorf("re-Prefetch grew the cache to %d entries after %d misses", st.Entries, st.Misses)
	}
}

// TestClockGatingDistinctKeys is the regression test for the memoization-key
// bug: two Options differing only in ClockGating must price differently
// (the old string label ignored the field and collided). The CC0 run is a
// fold of the CC3 record, not the CC3 Run served again.
func TestClockGatingDistinctKeys(t *testing.T) {
	h := NewHarness(RunConfig{WarmupInsts: 2000, MeasureInsts: 4000})
	b, _ := workload.ByName("164.gzip")
	cc3 := h.Simulate(b, cpu.Options{Predictor: bpred.Bim4k}) // CC3 is the zero value
	cc0 := h.Simulate(b, cpu.Options{Predictor: bpred.Bim4k, ClockGating: power.CC0})
	if st := h.Cache.Stats(); st.Entries != 1 || st.RepriceFolds != 1 {
		t.Fatalf("ClockGating variants collided: %d cached records and %d folds, want 1 and 1", st.Entries, st.RepriceFolds)
	}
	if cc0.TotalEnergy <= cc3.TotalEnergy {
		t.Errorf("CC0 (no clock gating) energy %g should exceed CC3 energy %g",
			cc0.TotalEnergy, cc3.TotalEnergy)
	}
	if cc0.Machine == cc3.Machine {
		t.Errorf("display labels also collide: %q", cc0.Machine)
	}
}

// TestForEach checks the pool helper covers every index exactly once for
// assorted worker/item ratios, including workers > items and workers <= 1.
func TestForEach(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 5}, {4, 4}, {8, 3}, {3, 17}, {0, 4},
	} {
		hits := make([]int, tc.n)
		ForEach(tc.workers, tc.n, func(i int) { hits[i]++ })
		for i, c := range hits {
			if c != 1 {
				t.Errorf("workers=%d n=%d: index %d visited %d times", tc.workers, tc.n, i, c)
			}
		}
	}
}
