package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bpredpower/internal/experiments"
)

var toyRC = experiments.RunConfig{WarmupInsts: 2000, MeasureInsts: 4000}

// toySuiteOutput is the toy suite's output, computed once for every run.
var toySuiteOutput = sync.OnceValues(func() ([]byte, error) {
	var out bytes.Buffer
	experiments.Figure14(experiments.NewHarness(toyRC), &out)
	return out.Bytes(), nil
})

// toyScale runs every workload through the benchmark's code at toy size:
// 2000/4000-instruction windows, a small key space, a one-figure "suite" and
// at most 20 timed requests.
func toyScale() scale {
	w := window{warmup: 2000, measure: 4000}
	return scale{
		preds:         []string{"Bim_128", "Bim_4k", "GAs_1_4k_5", "Gsh_1_16k_12", "Hybrid_1"},
		benches:       []string{"164.gzip", "175.vpr"},
		cold:          w,
		quick:         w,
		sweepWorkload: "164.gzip",
		sweepBenches:  1,
		suiteRC:       toyRC,
		suite:         experiments.Figure14,
		figures:       []figure{{"Figure14", experiments.Figure14, false}},
		wantSuite:     func(string) ([]byte, error) { return toySuiteOutput() },
		setups:        2,
		maxOps:        20,
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				rc := &runCtx{spec: w, seed: 3, seconds: time.Minute, root: "..", workDir: t.TempDir(), sc: toyScale()}
				if traced {
					rc.tr, rc.capture = newTracer(), &captureStore{}
				}
				if err := execute(rc, ""); err != nil {
					t.Fatal(err)
				}
				r := rc.rep
				if r.Failed != 0 || r.Attempted == 0 || r.Latency.N == 0 || len(r.Setup) != rc.sc.setups {
					t.Fatalf("report %+v", r)
				}
				if !traced {
					return
				}
				for _, d := range layerDefs {
					if _, ok := r.Layer[d.name]; !ok && d.name != "trace.overhead_s" && !strings.HasPrefix(d.name, "cpu.stage_share.") {
						t.Errorf("traced run lacks %s", d.name)
					}
				}
				if w.name == "serve_warm" || w.name == "reprice_sweep" {
					if n := r.Layer["experiments.timed_simulations"]; n != 0 {
						t.Errorf("%g simulations in the timed phase, want 0", n)
					}
				}
				if w.name == "reprice_sweep" {
					// 4 predictors × 2 banked × 4 styles on one benchmark,
					// less the 4 base points.
					if f := r.Layer["experiments.folds_per_request"]; f != 28 {
						t.Errorf("%g folds per sweep, want 28", f)
					}
				}
			})
		}
	}
}
