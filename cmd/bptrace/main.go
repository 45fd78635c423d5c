// Command bptrace works with the repository's EIO-trace analogue: it records
// a benchmark's committed-path branch trace (.bptrace) and evaluates
// predictor configurations on recorded traces the way SimpleScalar's
// sim-bpred does (predictor only, no pipeline timing).
//
// Usage:
//
//	bptrace -bench 164.gzip -record gzip.bptrace -n 1000000
//	bptrace -eval gzip.bptrace                  # all 14 paper configurations
//	bptrace -eval gzip.bptrace -pred Gsh_1_16k_12
package main

import (
	"bytes"
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
	bench := flag.String("bench", "", "benchmark to generate (e.g. 164.gzip)")
	record := flag.String("record", "", "record a branch trace to this file")
	n := flag.Uint64("n", 1000000, "instructions to walk when recording")
	eval := flag.String("eval", "", "evaluate predictors on this recorded trace")
	predName := flag.String("pred", "", "restrict -eval to one configuration")
	ext := flag.Bool("ext", false, "include the extension configurations (statics, GAg, gselect, PAg) in -eval")
	parallel := flag.Int("parallel", 0, "-eval worker count (0 = GOMAXPROCS); output is identical at any value")
	flag.Parse()

	switch {
	case *eval != "":
		evalTrace(*eval, *predName, *ext, *parallel)
	case *bench != "":
		if *record == "" {
			fmt.Fprintln(os.Stderr, "nothing to do: pass -record")
			os.Exit(2)
		}
		b, err := bpredpower.BenchmarkByName(*bench)
		die(err)
		f, err := os.Create(*record)
		die(err)
		count, err := trace.Record(b.Program(), *n, f)
		die(err)
		die(f.Close())
		fmt.Printf("wrote %s (%d branches from %d instructions)\n", *record, count, *n)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func evalTrace(path, predName string, ext bool, parallel int) {
	specs := bpred.PaperConfigs()
	if ext {
		specs = append(append([]bpred.Spec{}, specs...), bpred.ExtensionConfigs()...)
	}
	if predName != "" {
		s, ok := bpred.ConfigByName(predName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown predictor %q\n", predName)
			os.Exit(2)
		}
		specs = []bpred.Spec{s}
	}
	// Read the trace once; each worker replays it from its own reader.
	data, err := os.ReadFile(path)
	die(err)
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	results := make([]trace.EvalResult, len(specs))
	errs := make([]error, len(specs))
	experiments.ForEach(parallel, len(specs), func(i int) {
		results[i], errs[i] = trace.Eval(bytes.NewReader(data), specs[i])
	})
	fmt.Printf("%-14s %10s %12s\n", "predictor", "branches", "accuracy")
	for i, res := range results {
		die(errs[i])
		fmt.Printf("%-14s %10d %11.4f%%\n", res.Name, res.Branches, 100*res.Accuracy())
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
