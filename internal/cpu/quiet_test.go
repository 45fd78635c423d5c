package cpu

import (
	"reflect"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/config"
	"bpredpower/internal/gating"
	"bpredpower/internal/ppd"
	"bpredpower/internal/program"
	"bpredpower/internal/workload"
)

// stepRun is Run with every cycle taken through StepCycle: the same
// instruction target, cycle budget and limit flag, and no quiet-cycle
// skipping. It is the reference Run is checked against.
func stepRun(s *Sim, n uint64) {
	target := s.stats.Committed + n
	limit := cycleBudget(s.cycle, n)
	for s.stats.Committed < target && s.cycle < limit {
		s.StepCycle()
	}
	if s.stats.Committed < target {
		s.stats.CycleLimitHit = true
	}
}

// TestRunMatchesStepCycle drives the same machine through Run, which
// advances quiet cycles in closed form, and through one StepCycle per cycle,
// over a warm-up, a measurement reset and a measured window. Stats, the
// meter's activity vector and the PPD counters must match bit for bit:
// skipping may change how much work the simulator does, never what it
// reports.
func TestRunMatchesStepCycle(t *testing.T) {
	const warm, measure = 3000, 6000
	type tcase struct {
		name       string
		prog       *program.Program
		opt        Options
		warm, meas uint64
	}
	var cases []tcase
	for _, b := range workload.All() {
		p := b.Program()
		for _, spec := range []bpred.Spec{bpred.Bim4k, bpred.Gsh16k12, bpred.Hybrid1} {
			cases = append(cases, tcase{b.Name + "/" + spec.Name, p, Options{Predictor: spec}, warm, measure})
		}
	}
	art, err := workload.ByName("179.art")
	if err != nil {
		t.Fatal(err)
	}
	parser, err := workload.ByName("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []workload.Benchmark{art, parser} {
		p := b.Program()
		for _, est := range []gating.Estimator{gating.EstimatorBothStrong, gating.EstimatorJRS, gating.EstimatorPerfect} {
			cases = append(cases, tcase{b.Name + "/gating-" + est.String(), p, Options{Predictor: bpred.Hybrid0,
				Gating: gating.Config{Enabled: true, Threshold: 0, Estimator: est}}, warm, measure})
		}
		cases = append(cases,
			tcase{b.Name + "/ppd1", p, Options{Predictor: bpred.Hybrid1, PPD: ppd.Scenario1}, warm, measure},
			tcase{b.Name + "/ppd2", p, Options{Predictor: bpred.Hybrid1, PPD: ppd.Scenario2}, warm, measure},
			tcase{b.Name + "/line-predictor", p, Options{Predictor: bpred.Gsh16k12, LinePredictor: true}, warm, measure},
			tcase{b.Name + "/per-branch", p, Options{Predictor: bpred.Gsh16k12, ChargeLookupsPerBranch: true}, warm, measure},
		)
	}
	// TestRunRecordsCycleLimitHit's machine: the first I-cache miss outlasts
	// the whole cycle budget, so both paths must stop at the same limit.
	gzip, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	slow := config.Default()
	slow.MemLatency = 1_000_000
	cases = append(cases, tcase{"cycle-limit", gzip.Program(), Options{Config: slow}, 1, 1})

	var skipped, cycles uint64
	for _, c := range cases {
		run := MustNew(c.prog, c.opt)
		ref := MustNew(c.prog, c.opt)
		run.Run(c.warm)
		stepRun(ref, c.warm)
		run.ResetMeasurement()
		ref.ResetMeasurement()
		run.Run(c.meas)
		stepRun(ref, c.meas)

		if *run.Stats() != *ref.Stats() {
			t.Errorf("%s: Stats differ\nRun:       %+v\nStepCycle: %+v", c.name, *run.Stats(), *ref.Stats())
		}
		if run.Cycle() != ref.Cycle() {
			t.Errorf("%s: clock at %d after Run, %d after StepCycle", c.name, run.Cycle(), ref.Cycle())
		}
		if a, b := run.Meter().Activity(), ref.Meter().Activity(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: activity differs\nRun:       %+v\nStepCycle: %+v", c.name, a, b)
		}
		rp, rd, rb := run.PPDStats()
		sp, sd, sb := ref.PPDStats()
		if rp != sp || rd != sd || rb != sb {
			t.Errorf("%s: PPD stats %d/%d/%d after Run, %d/%d/%d after StepCycle", c.name, rp, rd, rb, sp, sd, sb)
		}
		if ref.SkippedCycles() != 0 {
			t.Errorf("%s: StepCycle skipped %d cycles", c.name, ref.SkippedCycles())
		}
		if c.name == "cycle-limit" {
			if st := run.Stats(); !st.CycleLimitHit || st.Committed != 0 {
				t.Errorf("cycle-limit: CycleLimitHit=%v Committed=%d, want true, 0", st.CycleLimitHit, st.Committed)
			}
			if run.SkippedCycles() == 0 {
				t.Error("cycle-limit: a machine waiting on memory skipped no cycles")
			}
		}
		skipped += run.SkippedCycles()
		cycles += run.Stats().Cycles
		run.Release()
		ref.Release()
	}
	if skipped == 0 {
		t.Fatal("Run skipped no cycles in any case: the comparison exercised nothing")
	}
	t.Logf("Run skipped %d of %d measured cycles (%.1f%%)", skipped, cycles, 100*float64(skipped)/float64(cycles))
}
