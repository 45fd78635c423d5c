// Taxonomy: evaluate the full two-level predictor taxonomy — the paper's
// fourteen configurations plus the library's extensions (static baselines,
// GAg, gselect, PAg) — on a committed-path branch stream, the fast
// sim-bpred-style methodology (predictor only, no pipeline).
//
// This demonstrates two library facilities beyond the paper's experiments:
// the EIO-like branch-stream record/replay path, and the extension predictors.
//
//	go run ./examples/taxonomy
package main

import (
	"fmt"
	"log"

	"bpredpower"
	"bpredpower/internal/bpred"
	"bpredpower/internal/trace"
)

func main() {
	bench, err := bpredpower.BenchmarkByName("186.crafty")
	if err != nil {
		log.Fatal(err)
	}

	// Record the committed-path branch stream once.
	branches := trace.Record(bench.Program(), 2_000_000)
	fmt.Printf("%s: %d branches from 2M instructions\n\n", bench.Name, len(branches))

	specs := append(append([]bpredpower.PredictorSpec{},
		bpredpower.ExtensionConfigs()...), bpredpower.PaperConfigs()...)

	fmt.Printf("%-16s %8s %10s\n", "predictor", "Kbits", "accuracy")
	for _, spec := range specs {
		res := trace.Eval(branches, bpred.Spec(spec))
		fmt.Printf("%-16s %8d %9.3f%%\n", spec.Name, spec.TotalBits()/1024, 100*res.Accuracy())
	}

	fmt.Println("\nStatic prediction sets the floor; the degenerate two-level schemes")
	fmt.Println("(GAg, PAg) show why address bits matter; the paper's hybrids sit on top.")
}
