// Package bpredpower is a cycle-level power/performance simulation library
// reproducing "Power Issues Related to Branch Prediction" (Parikh, Skadron,
// Zhang, Barcella, Stan — HPCA 2002 / UVa TR CS-2001-25).
//
// It provides, from scratch and with no external dependencies:
//
//   - the dynamic branch predictors the paper studies (bimodal, GAs, gshare,
//     PAs, and McFarling hybrids) in the paper's fourteen configurations,
//     with speculative history update and repair;
//   - an Alpha 21264-like out-of-order, cycle-level processor model
//     (8-stage pipeline, 80-entry RUU, 40-entry LSQ, 6-wide issue, the
//     Table 1 cache hierarchy) that fetches down predicted paths and
//     simulates mis-speculated execution;
//   - a Wattch-style activity-based power model with the paper's
//     extensions: explicit column decoders, min-energy-delay
//     squarification, banking, and cc3 conditional clocking;
//   - the paper's proposed structures: the prediction probe detector (PPD)
//     in both timing scenarios, predictor banking, and pipeline gating with
//     "both strong" confidence estimation;
//   - calibrated synthetic models of the 22 SPECcpu2000 benchmarks of the
//     paper's Table 2;
//   - an experiment harness that regenerates every data table and figure in
//     the paper's evaluation.
//
// # Quickstart
//
//	bench, _ := bpredpower.BenchmarkByName("164.gzip")
//	sim := bpredpower.NewSimulator(bench, bpredpower.Options{
//		Predictor: bpredpower.Hybrid1, // the Alpha 21264 predictor
//	})
//	sim.Run(200000)                    // warm up
//	sim.ResetMeasurement()
//	sim.Run(200000)                    // measure
//	fmt.Printf("IPC %.2f, accuracy %.2f%%, chip %.1f W, predictor %.2f W\n",
//		sim.Stats().IPC(), 100*sim.Stats().DirAccuracy(),
//		sim.Meter().AveragePower(), sim.Meter().PredictorPower())
//
// See the examples directory for runnable programs and DESIGN.md for the
// system inventory and per-experiment index.
package bpredpower

import (
	"bpredpower/internal/bpred"
	"bpredpower/internal/config"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/gating"
	"bpredpower/internal/power"
	"bpredpower/internal/ppd"
	"bpredpower/internal/program"
	"bpredpower/internal/workload"
)

// Core simulation types.
type (
	// Options selects the machine variant: predictor configuration,
	// banking, PPD scenario, pipeline gating, and power-model options.
	Options = cpu.Options
	// Simulator is a cycle-level out-of-order processor simulation bound to
	// one program.
	Simulator = cpu.Sim
	// Stats are the simulation statistics (IPC, prediction accuracy,
	// inter-branch distances, pipeline event counts).
	Stats = cpu.Stats
	// Meter is the cycle-by-cycle power accountant.
	Meter = power.Meter
	// Processor is the machine configuration (Table 1).
	Processor = config.Processor
	// PredictorSpec describes a buildable predictor configuration.
	PredictorSpec = bpred.Spec
	// Predictor is a built direction predictor.
	Predictor = bpred.Predictor
	// Benchmark is a calibrated synthetic SPECcpu2000 workload model.
	Benchmark = workload.Benchmark
	// Program is a synthetic static program image.
	Program = program.Program
	// GatingConfig configures pipeline gating (threshold N).
	GatingConfig = gating.Config
	// PPDScenario selects the prediction probe detector timing scenario.
	PPDScenario = ppd.Scenario
	// Harness prints the paper's figures from runs resolved through its
	// RunCache.
	Harness = experiments.Harness
	// RunConfig sets experiment simulation lengths.
	RunConfig = experiments.RunConfig
	// Run is one experiment outcome.
	Run = experiments.Run
)

// PPD scenarios (Figure 15b).
const (
	// PPDOff disables the prediction probe detector.
	PPDOff = ppd.Off
	// PPDScenario1 suppresses whole predictor/BTB lookups.
	PPDScenario1 = ppd.Scenario1
	// PPDScenario2 cancels lookups after the bitlines (partial savings).
	PPDScenario2 = ppd.Scenario2
)

// The paper's predictor configurations (Section 3.1).
var (
	Bim128    = bpred.Bim128
	Bim4k     = bpred.Bim4k
	Bim8k     = bpred.Bim8k
	Bim16k    = bpred.Bim16k
	GAs4k5    = bpred.GAs4k5
	GAs32k8   = bpred.GAs32k8
	Gsh16k12  = bpred.Gsh16k12
	Gsh32k12  = bpred.Gsh32k12
	Hybrid0   = bpred.Hybrid0
	Hybrid1   = bpred.Hybrid1
	Hybrid2   = bpred.Hybrid2
	Hybrid3   = bpred.Hybrid3
	Hybrid4   = bpred.Hybrid4
	PAs1k2k4  = bpred.PAs1k2k4
	PAs4k16k8 = bpred.PAs4k16k8
)

// PaperConfigs lists the fourteen configurations of Figures 2 and 5-13 in
// the paper's order.
func PaperConfigs() []PredictorSpec { return bpred.PaperConfigs() }

// PredictorByName returns a paper configuration by its figure label, e.g.
// "Gsh_1_16k_12".
func PredictorByName(name string) (PredictorSpec, bool) { return bpred.ConfigByName(name) }

// PredictorByNameStrict is PredictorByName with a descriptive error listing
// every registered configuration name.
func PredictorByNameStrict(name string) (PredictorSpec, error) { return bpred.ByName(name) }

// PredictorNames lists every registered predictor configuration name, sorted.
func PredictorNames() []string { return bpred.ConfigNames() }

// DefaultProcessor returns the paper's Table 1 machine configuration.
func DefaultProcessor() Processor { return config.Default() }

// SPECint2000 returns the ten calibrated integer benchmark models.
func SPECint2000() []Benchmark { return workload.SPECint2000() }

// SPECfp2000 returns the twelve calibrated floating-point benchmark models.
func SPECfp2000() []Benchmark { return workload.SPECfp2000() }

// AllBenchmarks returns all 22 benchmark models.
func AllBenchmarks() []Benchmark { return workload.All() }

// Subset7 returns the seven integer benchmarks Section 4 uses for the
// banking, PPD, and gating studies.
func Subset7() []Benchmark { return workload.Subset7() }

// BenchmarkByName returns a benchmark model, e.g. "164.gzip".
func BenchmarkByName(name string) (Benchmark, error) { return workload.ByName(name) }

// NewSimulator builds a simulator for a benchmark under the given options.
// A zero Options value simulates the Table 1 machine with the Alpha 21264
// hybrid predictor.
func NewSimulator(b Benchmark, opt Options) *Simulator {
	return cpu.MustNew(b.Program(), opt)
}

// NewSimulatorForProgram builds a simulator for a custom program image.
func NewSimulatorForProgram(p *Program, opt Options) (*Simulator, error) {
	return cpu.New(p, opt)
}

// Experiment run configurations.
var (
	// DefaultRuns is the full-fidelity experiment configuration.
	DefaultRuns = experiments.Default
	// QuickRuns is a fast configuration for smoke tests.
	QuickRuns = experiments.Quick
)

// NewHarness builds an experiment harness over its own unbounded RunCache,
// which memoizes program images and simulation records.
func NewHarness(rc RunConfig) *Harness { return experiments.NewHarness(rc) }

// Confidence estimators for pipeline gating. The paper evaluates
// "both strong"; the JRS and perfect estimators implement its suggested
// future study of predictor-independent confidence estimation.
const (
	// ConfidenceBothStrong requires both hybrid components saturated and
	// agreeing (the paper's estimator; hybrids only).
	ConfidenceBothStrong = gating.EstimatorBothStrong
	// ConfidenceJRS uses a separate resetting-counter table and works with
	// any predictor.
	ConfidenceJRS = gating.EstimatorJRS
	// ConfidencePerfect is the oracle upper bound.
	ConfidencePerfect = gating.EstimatorPerfect
)

// Extension predictor configurations beyond the paper's fourteen (Yeh-Patt /
// McFarling taxonomy points and static baselines).
var (
	GAg14          = bpred.GAg14
	Gsel16k6       = bpred.Gsel16k6
	PAg4k12        = bpred.PAg4k12
	StaticTaken    = bpred.StaticTaken
	StaticNotTaken = bpred.StaticNotTaken
)

// ExtensionConfigs lists the extra predictor organizations.
func ExtensionConfigs() []PredictorSpec { return bpred.ExtensionConfigs() }
