package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/config"
	"bpredpower/internal/cpu"
	"bpredpower/internal/power"
	"bpredpower/internal/program"
	"bpredpower/internal/workload"
)

// runDiff lists the fields in which two Runs differ, floats compared as
// float64 bits: printed output rounds, so only bit equality shows that a
// fold computes exactly what the simulator does.
func runDiff(got, want Run) []string {
	var diffs []string
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i), wv.Field(i)
		same := g.Interface() == w.Interface()
		if g.Kind() == reflect.Float64 {
			same = math.Float64bits(g.Float()) == math.Float64bits(w.Float())
		}
		if !same {
			diffs = append(diffs, fmt.Sprintf("%s: got %v, want %v", gv.Type().Field(i).Name, g, w))
		}
	}
	return diffs
}

// directRun simulates b under the full opt, pricing options included — the
// reference a harness Run is checked against.
func directRun(t *testing.T, p *program.Program, b workload.Benchmark, opt cpu.Options, rc RunConfig) Run {
	t.Helper()
	rec, err := simulate(context.Background(), p, b, opt, rc, chunkInsts)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Run
}

// Every clock-gating style is a fold of the CC3 base run, and each must
// price exactly what a simulation under that style accumulates.
func TestAccountingEquivalenceAcrossGatingStyles(t *testing.T) {
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{WarmupInsts: 4000, MeasureInsts: 8000}
	h := NewHarness(rc)
	h.Parallel = 1
	for _, style := range []power.GatingStyle{power.CC0, power.CC1, power.CC2, power.CC3} {
		t.Run(style.String(), func(t *testing.T) {
			opt := cpu.Options{Predictor: bpred.Hybrid1, ClockGating: style}
			got := h.Simulate(bench, opt)
			if err := h.Err(); err != nil {
				t.Fatal(err)
			}
			want := directRun(t, h.Cache.Program(bench), bench, opt, rc)
			for _, d := range runDiff(got, want) {
				t.Error(d)
			}
		})
	}
	if st := h.Cache.Stats(); st.Misses != 1 || st.RepriceFolds != 3 {
		t.Fatalf("cache stats = %+v, want 1 simulation and 3 folds", st)
	}
}

// TestFoldMatchesSimulationAcrossPlan is the end-to-end check that pricing
// by fold changes no number. Every distinct job of the full figure plan is
// produced twice: by a harness, which simulates each execution key once and
// folds the pricing variants from its activity record, and by a simulation
// of its own under the job's full Options. The two Runs must agree field for
// field, floats as bits. Every activity vector the simulations export must
// also be one SetActivity accepts: no unit active on more cycles than ran.
func TestFoldMatchesSimulationAcrossPlan(t *testing.T) {
	rc := RunConfig{WarmupInsts: 4000, MeasureInsts: 8000}
	var jobs []Job
	seen, execKeys := map[cacheKey]bool{}, map[cacheKey]bool{}
	nonBase := 0
	for _, j := range planAll() {
		k := cacheKey{j.Bench.Name, j.Opt, rc}
		if seen[k] {
			continue
		}
		seen[k] = true
		jobs = append(jobs, j)
		execOpt, pk := SplitOptions(j.Opt)
		execKeys[cacheKey{j.Bench.Name, execOpt, rc}] = true
		if !pk.IsBase() {
			nonBase++
		}
	}
	if nonBase == 0 {
		t.Fatal("the plan has no pricing variants to fold")
	}

	h := NewHarness(rc)
	h.Prefetch(jobs)
	if err := h.Err(); err != nil {
		t.Fatal(err)
	}

	progs := make([]*program.Program, len(jobs))
	for i, j := range jobs {
		progs[i] = h.Cache.Program(j.Bench)
	}
	want := make([]Run, len(jobs))
	acts := make([]power.Activity, len(jobs))
	errs := make([]error, len(jobs))
	ForEach(h.Workers(), len(jobs), func(i int) {
		var rec ActivityRecord
		rec, errs[i] = simulate(context.Background(), progs[i], jobs[i].Bench, jobs[i].Opt, rc, chunkInsts)
		want[i], acts[i] = rec.Run, rec.Activity
	})
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for _, ua := range acts[i].Units {
			if ua.ActiveCycles > acts[i].Cycles {
				t.Errorf("%s on %s: unit %s active on %d of %d cycles",
					j.Bench.Name, machineLabel(j.Opt), ua.Name, ua.ActiveCycles, acts[i].Cycles)
			}
		}
		if diffs := runDiff(h.Simulate(j.Bench, j.Opt), want[i]); len(diffs) > 0 {
			t.Errorf("%s on %s: harness Run differs from its simulation:\n  %s",
				j.Bench.Name, machineLabel(j.Opt), strings.Join(diffs, "\n  "))
		}
	}
	// Prefetch plus one Simulate per job: one simulation per execution key,
	// one fold per pricing variant.
	if st := h.Cache.Stats(); st.RepriceFolds != uint64(nonBase) || st.Misses != uint64(len(execKeys)) {
		t.Fatalf("harness ran %d simulations and %d folds; want %d and %d",
			st.Misses, st.RepriceFolds, len(execKeys), nonBase)
	}
	t.Logf("%d jobs over %d execution keys, %d of them folded pricing variants", len(jobs), len(execKeys), nonBase)
}

// A run that hits the cycle safety limit must surface as a harness error,
// not as a silently short Run.
func TestSimulateSurfacesCycleLimit(t *testing.T) {
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.MemLatency = 1_000_000
	h := NewHarness(RunConfig{WarmupInsts: 10, MeasureInsts: 10})
	h.Parallel = 1
	r := h.Simulate(bench, cpu.Options{Config: cfg})
	if err := h.Err(); err == nil {
		t.Fatalf("expected a cycle-limit error, got none (run: %+v)", r)
	} else if want := "cycle safety limit"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
	if r != (Run{}) {
		t.Errorf("limit-hit Simulate returned a non-zero Run: %+v", r)
	}
}
