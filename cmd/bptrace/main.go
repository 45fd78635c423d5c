// Command bptrace evaluates predictor configurations on a benchmark's
// committed-path conditional-branch stream, the repository's analogue of the
// paper's EIO traces, the way SimpleScalar's sim-bpred does (predictor only,
// no pipeline timing). It walks the benchmark once, keeps the stream in
// memory, and evaluates every chosen configuration over that one read-only
// slice.
//
// Usage:
//
//	bptrace -bench 164.gzip                   # all 14 paper configurations
//	bptrace -bench 164.gzip -n 20000000 -ext  # plus the extension configurations
//	bptrace -bench 164.gzip -pred Gsh_1_16k_12
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"bpredpower"
	"bpredpower/internal/bpred"
	"bpredpower/internal/experiments"
	"bpredpower/internal/trace"
)

func main() {
	bench := flag.String("bench", "", "benchmark to walk (e.g. 164.gzip)")
	n := flag.Uint64("n", 1000000, "instructions to walk")
	predName := flag.String("pred", "", "evaluate only this configuration")
	ext := flag.Bool("ext", false, "include the extension configurations (statics, GAg, gselect, PAg, alloyed, TAGE, perceptron)")
	parallel := flag.Int("parallel", 0, "evaluation worker count (0 = GOMAXPROCS); output is identical at any value")
	flag.Parse()

	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}
	specs := bpred.PaperConfigs()
	if *ext {
		specs = append(append([]bpred.Spec{}, specs...), bpred.ExtensionConfigs()...)
	}
	if *predName != "" {
		s, ok := bpred.ConfigByName(*predName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown predictor %q\n", *predName)
			os.Exit(2)
		}
		specs = []bpred.Spec{s}
	}
	b, err := bpredpower.BenchmarkByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	branches := trace.Record(b.Program(), *n)
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]trace.EvalResult, len(specs))
	experiments.ForEach(workers, len(specs), func(i int) {
		results[i] = trace.Eval(branches, specs[i])
	})
	fmt.Printf("%-16s %10s %12s\n", "predictor", "branches", "accuracy")
	for _, res := range results {
		fmt.Printf("%-16s %10d %11.4f%%\n", res.Name, res.Branches, 100*res.Accuracy())
	}
}
