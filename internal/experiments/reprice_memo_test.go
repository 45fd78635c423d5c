package experiments

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/workload"
)

// freshFold is the unmemoized fold: price rec on a meter built just for this
// call. The memoized Reprice must match it bit for bit.
func freshFold(t *testing.T, rec ActivityRecord, opt cpu.Options) Run {
	t.Helper()
	m, err := cpu.NewMeter(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetActivity(rec.Activity); err != nil {
		t.Fatal(err)
	}
	r := rec.Run
	r.Machine = machineLabel(opt)
	r.BpredPower = m.PredictorPower()
	r.TotalPower = m.AveragePower()
	r.BpredEnergy = m.PredictorEnergy()
	r.TotalEnergy = m.TotalEnergy()
	r.EnergyDelay = m.EnergyDelay()
	return r
}

// sameRun compares two Runs field by field, float64 fields by their bits.
func sameRun(got, want Run) bool {
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i), wv.Field(i)
		if g.Kind() == reflect.Float64 {
			if math.Float64bits(g.Float()) != math.Float64bits(w.Float()) {
				return false
			}
		} else if g.Interface() != w.Interface() {
			return false
		}
	}
	return true
}

// activityRecord runs a short simulation of spec on bench and returns its
// base-key activity record.
func activityRecord(t *testing.T, bench string, spec bpred.Spec, insts uint64) ActivityRecord {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	sim := cpu.MustNew(b.Program(), cpu.Options{Predictor: spec})
	defer sim.Release()
	sim.Run(insts)
	st := sim.Stats()
	return ActivityRecord{
		Run:      Run{Benchmark: bench, Committed: st.Committed, Fetched: st.Fetched},
		Activity: sim.Meter().Activity(),
	}
}

// foldMeterCount is the memo's current size.
func foldMeterCount() int {
	foldMeters.Lock()
	defer foldMeters.Unlock()
	return len(foldMeters.byOpt)
}

// Every registered predictor under every pricing key: the memoized fold —
// on the call that builds the meter and on the call that reuses it — equals
// a fold on a freshly built meter. The keys outnumber the memo's cap, so the
// memo is cleared and refilled along the way and must never exceed the cap.
func TestRepriceMemoMatchesFreshMeter(t *testing.T) {
	specs := bpred.AllConfigs()
	names := make(map[string]bool, len(specs))
	for _, spec := range specs {
		names[spec.Name] = true
	}
	for _, want := range []string{"Hybrid_1", "TAGE_64k", "Perceptron_64k"} {
		if !names[want] {
			t.Fatalf("registry is missing %s", want)
		}
	}
	if keys := len(specs) * len(pricingMatrix()); keys <= foldMeterCap {
		t.Fatalf("only %d distinct keys, need more than the cap of %d", keys, foldMeterCap)
	}
	peak := 0
	for _, spec := range specs {
		rec := activityRecord(t, "164.gzip", spec, 3000)
		for _, pk := range pricingMatrix() {
			opt := applyPricing(cpu.Options{Predictor: spec}, pk)
			want := freshFold(t, rec, opt)
			for pass := 0; pass < 2; pass++ {
				got, err := Reprice(rec, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRun(got, want) {
					t.Fatalf("%s %+v pass %d: memoized fold differs from a fresh meter\n got %+v\nwant %+v",
						spec.Name, pk, pass, got, want)
				}
				n := foldMeterCount()
				if n > foldMeterCap {
					t.Fatalf("memo holds %d meters, cap is %d", n, foldMeterCap)
				}
				peak = max(peak, n)
			}
		}
	}
	if peak != foldMeterCap {
		t.Fatalf("memo peaked at %d meters, want it to reach the cap of %d", peak, foldMeterCap)
	}
}

// Concurrent folds — many goroutines on one shared key, interleaving two
// different activity records, alongside goroutines on keys of their own —
// each get the result a fresh meter gives. Run under -race.
func TestRepriceMemoConcurrentFolds(t *testing.T) {
	recs := []ActivityRecord{
		activityRecord(t, "164.gzip", bpred.Hybrid1, 3000),
		activityRecord(t, "176.gcc", bpred.Hybrid1, 3000),
	}
	opts := make([]cpu.Options, 0, 8)
	for _, pk := range pricingMatrix()[:8] {
		opts = append(opts, applyPricing(cpu.Options{Predictor: bpred.Hybrid1}, pk))
	}
	want := make([][]Run, len(recs))
	for i, rec := range recs {
		for _, opt := range opts {
			want[i] = append(want[i], freshFold(t, rec, opt))
		}
	}

	const workers, iters = 8, 40
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ri := (w + i) % len(recs)
				// Even iterations share key 0; odd ones fold a key that
				// depends on the worker.
				oi := 0
				if i%2 == 1 {
					oi = w % len(opts)
				}
				got, err := Reprice(recs[ri], opts[oi])
				if err != nil {
					errs <- err.Error()
					return
				}
				if !sameRun(got, want[ri][oi]) {
					errs <- "concurrent fold differs from a fresh meter"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
