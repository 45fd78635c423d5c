package bpredpower

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"testing"

	"bpredpower/internal/array"
	"bpredpower/internal/atime"
	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/gating"
	"bpredpower/internal/power"
	"bpredpower/internal/ppd"
	"bpredpower/internal/trace"
	"bpredpower/internal/workload"
)

// The benchmarks below regenerate each of the paper's tables and figures
// (writing the rows to io.Discard; run cmd/bpexperiments to see them).
// They use the Quick run configuration so `go test -bench=.` finishes in
// minutes; cmd/bpexperiments uses the full windows.
//
// A fresh harness per iteration makes b.N iterations measure full
// regeneration cost, not cache hits.

// benchParallel sets the figure benchmarks' simulation worker count.
// (Named -experiments.parallel because go test claims -parallel itself.)
var benchParallel = flag.Int("experiments.parallel", 0,
	"figure-benchmark simulation workers (0 = GOMAXPROCS)")

func benchHarness() *experiments.Harness {
	h := experiments.NewHarness(experiments.Quick)
	h.Parallel = *benchParallel
	return h
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(benchHarness(), io.Discard)
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure2(benchHarness(), io.Discard)
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure3(io.Discard)
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure5(benchHarness(), io.Discard)
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure6(benchHarness(), io.Discard)
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure7(benchHarness(), io.Discard)
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure8(benchHarness(), io.Discard)
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure9(benchHarness(), io.Discard)
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure10(benchHarness(), io.Discard)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table3(io.Discard)
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure11(io.Discard)
	}
}

func BenchmarkFigures12And13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figures12And13(benchHarness(), io.Discard)
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure14(benchHarness(), io.Discard)
	}
}

func BenchmarkFigures16And17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figures16And17(benchHarness(), io.Discard)
	}
}

func BenchmarkFigure19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure19(benchHarness(), io.Discard)
	}
}

// --- Microbenchmarks and ablations -------------------------------------

// BenchmarkSimulatorThroughput measures raw simulation speed in committed
// instructions per second (reported as ns/inst) on 164.gzip, a compute-bound
// benchmark with few quiet cycles to skip.
func BenchmarkSimulatorThroughput(b *testing.B) {
	benchThroughput(b, "164.gzip")
}

// BenchmarkSimulatorThroughputArt is BenchmarkSimulatorThroughput on
// 179.art, the most memory-bound benchmark: most of its cycles wait on the
// memory hierarchy, and Run advances those in closed form. The skipped share
// of the measured cycles is reported as skipped/cycle.
func BenchmarkSimulatorThroughputArt(b *testing.B) {
	benchThroughput(b, "179.art")
}

func benchThroughput(b *testing.B, name string) {
	bench, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	p := bench.Program()
	sim := cpu.MustNew(p, cpu.Options{Predictor: bpred.Hybrid1})
	sim.Run(20000) // warm
	sim.ResetMeasurement()
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run(uint64(b.N))
	b.StopTimer()
	if c := sim.Stats().Cycles; c > 0 {
		b.ReportMetric(float64(sim.SkippedCycles())/float64(c), "skipped/cycle")
	}
}

// BenchmarkSimulatorStep measures one full pipeline cycle (fetch through
// commit plus power fold) on a warm machine — the per-cycle cost that
// BenchmarkSimulatorThroughput amortizes over committed instructions.
// StepCycle never skips quiet cycles, so every iteration is one stepped
// cycle.
func BenchmarkSimulatorStep(b *testing.B) {
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	p := bench.Program()
	sim := cpu.MustNew(p, cpu.Options{Predictor: bpred.Hybrid1})
	sim.Run(20000) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.StepCycle()
	}
}

// BenchmarkMeterEndCycle measures the meter's per-cycle kernel: the
// first-touch active-cycle count on each access plus the integer-only
// EndCycle. The meter mirrors the real machine's unit count, with about a
// third of the units active per cycle.
func BenchmarkMeterEndCycle(b *testing.B) {
	m := power.NewMeter(1.25e-9)
	units := make([]*power.Unit, 34)
	for i := range units {
		units[i] = m.Add(power.NewFixedUnit(fmt.Sprintf("u%02d", i), power.GroupALU, 1e-10, 2))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(units); j += 3 {
			units[j].Read(1)
		}
		m.EndCycle()
	}
	b.StopTimer()
	if m.TotalEnergy() <= 0 {
		b.Fatal("meter accumulated no energy")
	}
}

// BenchmarkPredictorLookup measures a single hybrid lookup+update round.
func BenchmarkPredictorLookup(b *testing.B) {
	for _, spec := range []bpred.Spec{bpred.Bim4k, bpred.Gsh16k12, bpred.PAs4k16k8, bpred.Hybrid1} {
		b.Run(spec.Name, func(b *testing.B) {
			p := spec.Build()
			var pr bpred.Prediction // hoisted so &pr does not escape per iteration
			for i := 0; i < b.N; i++ {
				pc := uint64(i*4) & 0xffff
				pr = p.Lookup(pc)
				p.Update(&pr, i&3 != 0)
			}
		})
	}
}

// Ablation: the cost of the column-decoder extension (old vs new model) on
// a full simulation — the modelling choice behind Figure 2.
func BenchmarkAblationColumnDecoder(b *testing.B) {
	bench, _ := workload.ByName("164.gzip")
	p := bench.Program()
	for _, old := range []bool{false, true} {
		name := "newModel"
		if old {
			name = "oldModel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := cpu.MustNew(p, cpu.Options{Predictor: bpred.Gsh16k12, OldArrayModel: old})
				sim.Run(30000)
			}
		})
	}
}

// Ablation: squarification strategy (closest-square vs min-EDP), the
// modelling choice behind Figure 3.
func BenchmarkAblationSquarify(b *testing.B) {
	am := array.NewModel()
	tm := atime.New()
	s := array.Spec{Entries: 32768, Width: 2, OutBits: 2}
	b.Run("closestSquare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = array.ChooseClosestSquare(s)
		}
	})
	b.Run("minEDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = array.ChooseMinEDP(am, s, tm.Delay)
		}
	})
}

// Ablation: speculative history update + repair vs the simpler model —
// exercised by running the full pipeline, where Unwind/Redirect dominate
// squash cost.
func BenchmarkAblationPPDScenarios(b *testing.B) {
	bench, _ := workload.ByName("254.gap")
	p := bench.Program()
	for _, sc := range []ppd.Scenario{ppd.Off, ppd.Scenario1, ppd.Scenario2} {
		b.Run(sc.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := cpu.MustNew(p, cpu.Options{Predictor: bpred.GAs32k8, PPD: sc})
				sim.Run(30000)
			}
		})
	}
}

// Ablation: pipeline-gating thresholds on the poor hybrid.
func BenchmarkAblationGating(b *testing.B) {
	bench, _ := workload.ByName("197.parser")
	p := bench.Program()
	for n := 0; n <= 2; n++ {
		b.Run(map[int]string{0: "N0", 1: "N1", 2: "N2"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := cpu.MustNew(p, cpu.Options{Predictor: bpred.Hybrid0,
					Gating: gating.Config{Enabled: true, Threshold: n}})
				sim.Run(30000)
			}
		})
	}
}

// BenchmarkProgramGeneration measures synthetic benchmark generation
// including closed-loop mixture calibration.
func BenchmarkProgramGeneration(b *testing.B) {
	bench, _ := workload.ByName("164.gzip")
	for i := 0; i < b.N; i++ {
		_ = bench.Program()
	}
}

// Ablation: Wattch conditional-clocking styles (cc0-cc3); the paper's
// results all use cc3.
func BenchmarkAblationClockGating(b *testing.B) {
	bench, _ := workload.ByName("164.gzip")
	p := bench.Program()
	for _, style := range []power.GatingStyle{power.CC0, power.CC1, power.CC2, power.CC3} {
		b.Run(style.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := cpu.MustNew(p, cpu.Options{Predictor: bpred.Gsh16k12, ClockGating: style})
				sim.Run(30000)
			}
		})
	}
}

// Ablation: per-active-cycle vs per-branch predictor lookup charging — the
// fetch-engine accounting decision the paper's simulator extension makes.
func BenchmarkAblationLookupCharging(b *testing.B) {
	bench, _ := workload.ByName("164.gzip")
	p := bench.Program()
	for _, perBranch := range []bool{false, true} {
		name := "perActiveCycle"
		if perBranch {
			name = "perBranch"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim := cpu.MustNew(p, cpu.Options{Predictor: bpred.Gsh16k12, ChargeLookupsPerBranch: perBranch})
				sim.Run(30000)
			}
		})
	}
}

// BenchmarkTraceEval measures sim-bpred-style trace evaluation throughput.
func BenchmarkTraceEval(b *testing.B) {
	bench, _ := workload.ByName("164.gzip")
	var buf bytes.Buffer
	if _, err := trace.Record(bench.Program(), 200000, &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Eval(bytes.NewReader(data), bpred.Hybrid1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionConfidence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtensionConfidence(benchHarness(), io.Discard)
	}
}

func BenchmarkExtensionLinePredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtensionLinePredictor(benchHarness(), io.Discard)
	}
}
