package experiments

import (
	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/gating"
	"bpredpower/internal/power"
	"bpredpower/internal/ppd"
	"bpredpower/internal/workload"
)

// This file declares, per figure, the full set of simulations the figure
// will request, so the figure functions can hand the whole batch to
// Harness.Prefetch and have the worker pool execute it before any printing
// starts. A plan lists jobs in the same order the figure consumes them;
// Prefetch deduplicates, so overlap between plans (e.g. Figures 5-7 sharing
// one sweep) costs nothing.

// Cross pairs every benchmark with every machine variant, variant-major to
// match the loop nesting of the figures (variant outer, benchmark inner).
func Cross(bs []workload.Benchmark, opts ...cpu.Options) []Job {
	jobs := make([]Job, 0, len(bs)*len(opts))
	for _, opt := range opts {
		for _, b := range bs {
			jobs = append(jobs, Job{b, opt})
		}
	}
	return jobs
}

// sweepOpts is the 14-configuration machine list of Figures 5-10.
func sweepOpts() []cpu.Options {
	opts := make([]cpu.Options, len(bpred.PaperConfigs()))
	for i, spec := range bpred.PaperConfigs() {
		opts[i] = cpu.Options{Predictor: spec}
	}
	return opts
}

func planTable2() []Job {
	return Cross(workload.All(),
		cpu.Options{Predictor: bpred.Bim16k},
		cpu.Options{Predictor: bpred.Gsh16k12})
}

func planFigure2() []Job {
	var opts []cpu.Options
	for _, spec := range bpred.PaperConfigs() {
		opts = append(opts,
			cpu.Options{Predictor: spec, OldArrayModel: true, SquarifyClosest: true},
			cpu.Options{Predictor: spec})
	}
	return Cross(workload.SPECint2000(), opts...)
}

// planSweepInt covers Figures 5, 6, and 7 (one shared sweep).
func planSweepInt() []Job { return Cross(workload.SPECint2000(), sweepOpts()...) }

// planSweepFP covers Figures 8, 9, and 10.
func planSweepFP() []Job { return Cross(workload.SPECfp2000(), sweepOpts()...) }

func planFigures12And13() []Job {
	var opts []cpu.Options
	for _, spec := range bpred.PaperConfigs() {
		opts = append(opts,
			cpu.Options{Predictor: spec},
			cpu.Options{Predictor: spec, BankedPredictor: true})
	}
	return Cross(workload.Subset7(), opts...)
}

func planFigure14() []Job {
	return Cross(workload.Subset7(), cpu.Options{Predictor: bpred.GAs32k8})
}

func planFigures16And17() []Job {
	spec := bpred.GAs32k8
	return Cross(workload.Subset7(),
		cpu.Options{Predictor: spec},
		cpu.Options{Predictor: spec, BankedPredictor: true},
		cpu.Options{Predictor: spec, PPD: ppd.Scenario1},
		cpu.Options{Predictor: spec, PPD: ppd.Scenario1, BankedPredictor: true},
		cpu.Options{Predictor: spec, PPD: ppd.Scenario2, BankedPredictor: true})
}

func planFigure19() []Job {
	var opts []cpu.Options
	for _, spec := range []bpred.Spec{bpred.Hybrid0, bpred.Hybrid3} {
		opts = append(opts, cpu.Options{Predictor: spec})
		for _, n := range []int{0, 1, 2} {
			opts = append(opts, cpu.Options{Predictor: spec,
				Gating: gating.Config{Enabled: true, Threshold: n}})
		}
	}
	return Cross(workload.Subset7(), opts...)
}

func planExtensionConfidence() []Job {
	var opts []cpu.Options
	for _, spec := range []bpred.Spec{bpred.Hybrid0, bpred.Hybrid3} {
		opts = append(opts, cpu.Options{Predictor: spec})
		for _, est := range []gating.Estimator{gating.EstimatorBothStrong, gating.EstimatorJRS, gating.EstimatorPerfect} {
			opts = append(opts, cpu.Options{Predictor: spec,
				Gating: gating.Config{Enabled: true, Threshold: 0, Estimator: est}})
		}
	}
	return Cross(workload.Subset7(), opts...)
}

func planExtensionLinePredictor() []Job {
	return Cross(workload.Subset7(),
		cpu.Options{Predictor: bpred.Hybrid1},
		cpu.Options{Predictor: bpred.Hybrid1, LinePredictor: true})
}

func planExtensionModern() []Job {
	opts := make([]cpu.Options, 0, len(modernSweepSpecs()))
	for _, spec := range modernSweepSpecs() {
		opts = append(opts, cpu.Options{Predictor: spec})
	}
	return Cross(workload.Subset7(), opts...)
}

// gatingStyleList is ExtensionGatingStyles' display order: Wattch's
// aggressive-to-conservative ablations first, the paper's cc3 baseline last.
var gatingStyleList = []power.GatingStyle{power.CC0, power.CC1, power.CC2, power.CC3}

func planExtensionGatingStyles() []Job {
	var opts []cpu.Options
	for _, style := range gatingStyleList {
		for _, banked := range []bool{false, true} {
			opts = append(opts, cpu.Options{Predictor: bpred.Hybrid1,
				BankedPredictor: banked, ClockGating: style})
		}
	}
	return Cross(workload.Subset7(), opts...)
}

// planAll is the union of every figure's plan, in figure order, so All can
// keep the worker pool saturated across the whole regeneration instead of
// draining it at each figure boundary.
func planAll() []Job {
	var jobs []Job
	for _, p := range [][]Job{
		planTable2(),
		planFigure2(),
		planSweepInt(),
		planSweepFP(),
		planFigures12And13(),
		planFigure14(),
		planFigures16And17(),
		planFigure19(),
		planExtensionConfidence(),
		planExtensionLinePredictor(),
		planExtensionModern(),
		planExtensionGatingStyles(),
	} {
		jobs = append(jobs, p...)
	}
	return jobs
}
