// Command bpexperiments regenerates the paper's evaluation tables and
// figures (see DESIGN.md for the experiment index).
//
// Usage:
//
//	bpexperiments                 # everything (several minutes)
//	bpexperiments -quick          # shorter runs for a smoke pass
//	bpexperiments -table 2        # one table
//	bpexperiments -figure 16      # one figure (16 also prints 17, 12 also 13)
//
// Runs differing only in pricing knobs (banking, array model, organization
// search, clock-gating style) are repriced from one cached activity vector
// per execution key, bit-identical to simulating each configuration.
package main

import (
	"flag"
	"fmt"
	"os"

	"bpredpower/internal/experiments"
)

func main() {
	table := flag.Int("table", 0, "print only this table (1, 2, or 3)")
	figure := flag.Int("figure", 0, "print only this figure (2,3,5..14,16,17,19; 20=confidence, 21=line-predictor, 22=modern-predictor, 23=gating-style extension)")
	quick := flag.Bool("quick", false, "use short simulation windows")
	warm := flag.Uint64("warmup", 0, "override warm-up instruction count")
	measure := flag.Uint64("measure", 0, "override measured instruction count")
	parallel := flag.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS); output is identical at any value")
	flag.Parse()

	rc := experiments.Default
	if *quick {
		rc = experiments.Quick
	}
	if *warm > 0 {
		rc.WarmupInsts = *warm
	}
	if *measure > 0 {
		rc.MeasureInsts = *measure
	}
	h := experiments.NewHarness(rc)
	h.Parallel = *parallel
	w := os.Stdout

	switch {
	case *table == 1:
		experiments.Table1(w)
	case *table == 2:
		experiments.Table2(h, w)
	case *table == 3:
		experiments.Table3(w)
	case *table != 0:
		fmt.Fprintf(os.Stderr, "unknown table %d (have 1, 2, 3)\n", *table)
		os.Exit(2)
	case *figure == 2:
		experiments.Figure2(h, w)
	case *figure == 3:
		experiments.Figure3(w)
	case *figure == 5:
		experiments.Figure5(h, w)
	case *figure == 6:
		experiments.Figure6(h, w)
	case *figure == 7:
		experiments.Figure7(h, w)
	case *figure == 8:
		experiments.Figure8(h, w)
	case *figure == 9:
		experiments.Figure9(h, w)
	case *figure == 10:
		experiments.Figure10(h, w)
	case *figure == 11:
		experiments.Figure11(w)
	case *figure == 12, *figure == 13:
		experiments.Figures12And13(h, w)
	case *figure == 14:
		experiments.Figure14(h, w)
	case *figure == 16, *figure == 17:
		experiments.Figures16And17(h, w)
	case *figure == 19:
		experiments.Figure19(h, w)
	case *figure == 20:
		experiments.ExtensionConfidence(h, w)
	case *figure == 21:
		experiments.ExtensionLinePredictor(h, w)
	case *figure == 22:
		experiments.ExtensionModernPredictors(h, w)
	case *figure == 23:
		experiments.ExtensionGatingStyles(h, w)
	case *figure != 0:
		fmt.Fprintf(os.Stderr, "unknown figure %d\n", *figure)
		os.Exit(2)
	default:
		experiments.All(h, w)
	}
}
