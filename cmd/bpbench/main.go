// Command bpbench records the simulator's kernel costs: it runs the core
// throughput (164.gzip and the memory-bound 179.art), per-cycle step,
// power-fold, predictor, commit-scan and reprice microbenchmarks and writes
// the numbers to BENCH_results.json so later changes can be diffed against
// them. Figure wall times are the
// repository benchmark's job (benchmark/, the paper_figures workload and its
// cpu.ns_per_inst layer), not bpbench's.
//
// Usage:
//
//	bpbench                      # write BENCH_results.json in the cwd
//	bpbench -o /tmp/bench.json -compare BENCH_results.json
//	                             # fail (exit 1) if a microbenchmark regressed
//	                             # more than 15% vs the old file
//	bpbench -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/power"
	"bpredpower/internal/program"
	"bpredpower/internal/workload"
)

// result is one benchmark's measurement, averaged over its iterations.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	WallSeconds float64 `json:"wall_seconds"`
	Iterations  int     `json:"iterations"`
	// SkippedShare is the share of simulated cycles Run advanced in closed
	// form over quiet cycles (throughput entries only).
	SkippedShare float64 `json:"skipped_share,omitempty"`
}

type report struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// Throughput is the full-pipeline simulation rate; NsPerOp is ns per
	// committed instruction and AllocsPerOp must stay 0 in steady state.
	// Throughput runs 164.gzip, which is compute-bound; ThroughputArt runs
	// 179.art, where most cycles wait on memory and are skipped.
	Throughput    result `json:"throughput"`
	ThroughputArt result `json:"throughput_art"`
	// Step is one warm pipeline cycle (fetch through commit plus the power
	// fold); EndCycle is the power meter's per-cycle kernel alone, keyed
	// "deferred" (the name -compare looks up).
	Step     result            `json:"step"`
	EndCycle map[string]result `json:"end_cycle"`
	// PredictorLookup is one predict+train round through the Predictor
	// interface, the dispatch the simulator's fetch and commit paths use.
	PredictorLookup map[string]result `json:"predictor_lookup"`
	// SoACommitScan is the branch-free done-bitmap scan that bounds every
	// commit cycle, measured in isolation on a warm pipeline.
	SoACommitScan result `json:"soa_commit_scan"`
	// RepriceFold is one pricing-key fold: rebuilding the unit set for a
	// power configuration and repricing a cached activity vector through it.
	// This bounds the per-variant cost of activity/price decoupling — it
	// must stay orders of magnitude below a full simulation.
	RepriceFold result `json:"reprice_fold"`
}

// scanSink keeps the commit-scan microbenchmark live so the compiler cannot
// dead-code-eliminate the loop body.
var scanSink int

// measure runs f under the testing harness (no wall-clock access of our
// own: the determinism lint bans time.Now outside tests, and
// testing.Benchmark hands us the elapsed time and allocation counts).
func measure(f func(b *testing.B)) result {
	r := testing.Benchmark(f)
	if r.N == 0 {
		return result{}
	}
	return result{
		NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		WallSeconds:  r.T.Seconds(),
		Iterations:   r.N,
		SkippedShare: r.Extra["skipped/cycle"],
	}
}

// throughputBench measures Run on prog after a 20k-instruction warm-up, in
// ns per committed instruction, and reports the skipped share of the
// measured cycles.
func throughputBench(prog *program.Program) func(b *testing.B) {
	return func(b *testing.B) {
		sim := cpu.MustNew(prog, cpu.Options{Predictor: bpred.Hybrid1})
		defer sim.Release()
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
}

// measureBest is measure repeated three times, keeping the fastest run.
// The minimum is the standard low-noise estimator for microbenchmarks on a
// shared box: interference only ever adds time, so the smallest observation
// is the closest to the code's true cost.
func measureBest(f func(b *testing.B)) result {
	best := measure(f)
	for i := 0; i < 2; i++ {
		if r := measure(f); r.Iterations > 0 && r.NsPerOp < best.NsPerOp {
			best = r
		}
	}
	return best
}

func main() {
	out := flag.String("o", "BENCH_results.json", "output file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the throughput run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the microbenchmarks) to this file")
	compare := flag.String("compare", "", "old BENCH_results.json to diff against; exit 1 on microbenchmark regressions beyond 15%")
	flag.Parse()

	rep := report{
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		EndCycle:        map[string]result{},
		PredictorLookup: map[string]result{},
	}

	gzip, err := workload.ByName("164.gzip")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog := gzip.Program()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	art, err := workload.ByName("179.art")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	rep.Throughput = measureBest(throughputBench(prog))
	fmt.Printf("throughput        %8.1f ns/inst  %d allocs/op  %.1f%% cycles skipped\n",
		rep.Throughput.NsPerOp, rep.Throughput.AllocsPerOp, 100*rep.Throughput.SkippedShare)
	rep.ThroughputArt = measureBest(throughputBench(art.Program()))
	fmt.Printf("throughput_art    %8.1f ns/inst  %d allocs/op  %.1f%% cycles skipped\n",
		rep.ThroughputArt.NsPerOp, rep.ThroughputArt.AllocsPerOp, 100*rep.ThroughputArt.SkippedShare)

	rep.Step = measureBest(func(b *testing.B) {
		sim := cpu.MustNew(prog, cpu.Options{Predictor: bpred.Hybrid1})
		sim.Run(20000) // warm
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.StepCycle()
		}
	})
	fmt.Printf("step              %8.1f ns/cycle %d allocs/op\n",
		rep.Step.NsPerOp, rep.Step.AllocsPerOp)

	endCycle := measureBest(func(b *testing.B) {
		m := power.NewMeter(1.25e-9)
		units := make([]*power.Unit, 34)
		for i := range units {
			//bplint:allow unitsource -- synthetic micro-bench units, not part of the modeled machine
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
	})
	rep.EndCycle["deferred"] = endCycle
	fmt.Printf("end_cycle         %8.2f ns/op    %d allocs/op\n", endCycle.NsPerOp, endCycle.AllocsPerOp)

	for _, spec := range []bpred.Spec{bpred.Bim4k, bpred.Gsh16k12, bpred.PAs4k16k8, bpred.Hybrid1} {
		spec := spec
		r := measureBest(func(b *testing.B) {
			p := spec.Build()
			var pr bpred.Prediction
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc := uint64(i*4) & 0xffff
				pr = p.Lookup(pc)
				p.Update(&pr, i&3 != 0)
			}
		})
		rep.PredictorLookup[spec.Name] = r
		fmt.Printf("lookup %-11s %8.2f ns/op    %d allocs/op\n", spec.Name, r.NsPerOp, r.AllocsPerOp)
	}

	rep.SoACommitScan = measureBest(func(b *testing.B) {
		sim := cpu.MustNew(prog, cpu.Options{Predictor: bpred.Hybrid1})
		sim.Run(20000) // warm: a populated RUU with an in-flight done bitmap
		defer sim.Release()
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			n += sim.CommitScanLen()
		}
		scanSink = n
	})
	fmt.Printf("soa_commit_scan   %8.2f ns/op    %d allocs/op\n",
		rep.SoACommitScan.NsPerOp, rep.SoACommitScan.AllocsPerOp)

	rep.RepriceFold = measureBest(func(b *testing.B) {
		sim := cpu.MustNew(prog, cpu.Options{Predictor: bpred.Hybrid1})
		sim.Run(6000)
		rec := experiments.ActivityRecord{Run: experiments.Run{Benchmark: gzip.Name}, Activity: sim.Meter().Activity()}
		sim.Release()
		opt := cpu.Options{Predictor: bpred.Hybrid1, BankedPredictor: true, ClockGating: power.CC1}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Reprice(rec, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	fmt.Printf("reprice_fold      %8.2f ns/op    %d allocs/op\n",
		rep.RepriceFold.NsPerOp, rep.RepriceFold.AllocsPerOp)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *compare != "" {
		if !compareReports(os.Stdout, *compare, rep) {
			os.Exit(1)
		}
	}
}

// regressionThreshold is the relative ns/op regression -compare tolerates.
const regressionThreshold = 0.15

// compareReports diffs the new microbenchmark numbers against the report in
// oldPath, printing a delta line per entry to w. An entry the baseline lacks
// is printed as "(no baseline; not gated)". It returns false when any entry
// present in both reports got slower by more than regressionThreshold
// (relative) and by more than 5 ns (absolute — few-ns deltas on small loops
// are layout and scheduler jitter, not regressions), or when a previously
// allocation-free entry now allocates.
func compareReports(w io.Writer, oldPath string, newRep report) bool {
	data, err := os.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpbench: -compare: %v\n", err)
		return false
	}
	var oldRep report
	if err := json.Unmarshal(data, &oldRep); err != nil {
		fmt.Fprintf(os.Stderr, "bpbench: -compare: parsing %s: %v\n", oldPath, err)
		return false
	}

	type entry struct {
		name     string
		old, new result
	}
	entries := []entry{
		{"throughput", oldRep.Throughput, newRep.Throughput},
		{"throughput_art", oldRep.ThroughputArt, newRep.ThroughputArt},
		{"step", oldRep.Step, newRep.Step},
		{"end_cycle/deferred", oldRep.EndCycle["deferred"], newRep.EndCycle["deferred"]},
	}
	lookups := make([]string, 0, len(newRep.PredictorLookup))
	for k := range newRep.PredictorLookup { //bplint:allow maprange -- keys are sorted before any order-dependent use
		lookups = append(lookups, k)
	}
	sort.Strings(lookups)
	for _, k := range lookups {
		entries = append(entries, entry{"lookup/" + k, oldRep.PredictorLookup[k], newRep.PredictorLookup[k]})
	}
	entries = append(entries,
		entry{"soa_commit_scan", oldRep.SoACommitScan, newRep.SoACommitScan},
		entry{"reprice_fold", oldRep.RepriceFold, newRep.RepriceFold})

	ok := true
	fmt.Fprintf(w, "compare vs %s (threshold %.0f%%):\n", oldPath, regressionThreshold*100)
	for _, e := range entries {
		if e.new.Iterations == 0 {
			continue
		}
		if e.old.Iterations == 0 || e.old.NsPerOp <= 0 {
			// Measured now but absent from the baseline: shown, not gated,
			// until the baseline is regenerated.
			fmt.Fprintf(w, "  %-22s %9s -> %9.2f ns/op  (no baseline; not gated)\n", e.name, "-", e.new.NsPerOp)
			continue
		}
		delta := e.new.NsPerOp/e.old.NsPerOp - 1
		verdict := "ok"
		switch {
		// The absolute floor keeps the smallest entries (the ~3 ns commit
		// scan, the ~17 ns deferred fold and table lookups) from tripping
		// the relative gate on binary-layout and scheduler jitter, which is
		// several ns regardless of loop cost on this class of box. A real
		// regression in those kernels still shows up here through the
		// end-to-end throughput and step entries, where 15% is far above
		// the floor.
		case delta > regressionThreshold && e.new.NsPerOp-e.old.NsPerOp > 5.0:
			verdict = "REGRESSION"
			ok = false
		case e.old.AllocsPerOp == 0 && e.new.AllocsPerOp > 0:
			verdict = "ALLOC REGRESSION"
			ok = false
		case delta < -0.05:
			verdict = "faster"
		}
		fmt.Fprintf(w, "  %-22s %9.2f -> %9.2f ns/op  %+6.1f%%  %s\n",
			e.name, e.old.NsPerOp, e.new.NsPerOp, delta*100, verdict)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bpbench: performance regression beyond threshold")
	}
	return ok
}
