// Command bpsweep explores array organizations: for a direction-predictor
// table of a given size it prints every feasible physical organization with
// its read energy, access time, cycle time, and energy-delay product, and
// marks the organizations Wattch's closest-to-square rule and the paper's
// min-EDP squarification would choose. With -banked it applies the Table 3
// bank count first.
//
// With -pred it resolves a named predictor configuration from the registry
// and reports, through the frontend layer, the organization, energy, and
// access time chosen for each of the predictor's tables.
//
// With -pred and -reprice it runs one short 164.gzip simulation of the
// named predictor and reprices every pricing-key variant — banking crossed
// with the four clock-gating styles — from that single cached activity
// vector, reporting the simulation and fold counts alongside the table.
//
// Usage:
//
//	bpsweep -entries 16384
//	bpsweep -entries 32768 -banked
//	bpsweep -sweep          # the Figure 3 / Figure 11 size sweep
//	bpsweep -pred Hybrid_1  # per-table report for one configuration
//	bpsweep -pred Hybrid_1 -reprice  # 8 power variants from 1 simulation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"bpredpower/internal/array"
	"bpredpower/internal/atime"
	"bpredpower/internal/bpred"
	"bpredpower/internal/config"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/frontend"
	"bpredpower/internal/power"
	"bpredpower/internal/workload"
)

func main() {
	entries := flag.Int("entries", 16384, "PHT entries (2-bit counters)")
	banked := flag.Bool("banked", false, "apply Table 3 banking")
	sweep := flag.Bool("sweep", false, "sweep the Figure 3/11 size range instead")
	predName := flag.String("pred", "", "report a named predictor configuration's tables instead")
	parallel := flag.Int("parallel", 0, "-sweep worker count (0 = GOMAXPROCS); output is identical at any value")
	reprice := flag.Bool("reprice", false, "with -pred: reprice banking x gating-style variants from one simulation")
	flag.Parse()

	am := array.NewModel()
	tm := atime.New()

	if *predName != "" {
		if err := predReport(os.Stdout, *predName, *banked); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *reprice {
			fmt.Println()
			if err := repriceReport(os.Stdout, *predName); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		return
	}

	if *sweep {
		// Evaluate the rows on a worker pool (the min-EDP search enumerates
		// every organization per size) and print them in order afterwards.
		type row struct {
			n, banks int
			e, t     float64
			org      array.Org
		}
		sizes := []int{256, 1024, 2048, 4096, 8192, 16384, 32768, 65536}
		rows := make([]row, 2*len(sizes))
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		experiments.ForEach(workers, len(rows), func(i int) {
			n := sizes[i/2]
			s := array.Spec{Entries: n, Width: 2, OutBits: 2}
			banks := 1
			if i%2 == 1 {
				banks = array.BanksForBits(s.Bits())
				s.Banks = banks
			}
			org := array.ChooseMinEDP(am, s, tm.Delay)
			rows[i] = row{n: n, banks: banks, org: org,
				e: am.ReadEnergy(s, org), t: tm.CycleTime(s, org)}
		})
		fmt.Printf("%8s %6s %-22s %10s %10s %12s\n",
			"entries", "banks", "organization", "energy pJ", "cycle ns", "EDP (aJ*s)")
		for _, r := range rows {
			fmt.Printf("%8d %6d %-22v %10.1f %10.3f %12.2f\n",
				r.n, r.banks, r.org, r.e*1e12, r.t*1e9, r.e*r.t*1e18)
		}
		return
	}

	s := array.Spec{Entries: *entries, Width: 2, OutBits: 2}
	if *banked {
		s.Banks = array.BanksForBits(s.Bits())
	}
	square := array.ChooseClosestSquare(s)
	minEDP := array.ChooseMinEDP(am, s, tm.Delay)
	fmt.Printf("PHT %d entries (%d Kbits), %d bank(s)\n", *entries, s.Bits()/1024, max(1, s.Banks))
	fmt.Printf("%-22s %10s %10s %10s %12s %s\n",
		"organization", "energy pJ", "access ns", "cycle ns", "EDP (aJ*s)", "chosen by")
	for _, org := range array.Organizations(s) {
		e := am.ReadEnergy(s, org)
		at := tm.AccessTime(s, org)
		ct := tm.CycleTime(s, org)
		tag := ""
		if org == square {
			tag += " closest-square"
		}
		if org == minEDP {
			tag += " min-EDP"
		}
		fmt.Printf("%-22v %10.1f %10.3f %10.3f %12.2f%s\n",
			org, e*1e12, at*1e9, ct*1e9, e*at*1e18, tag)
	}
}

// predReport resolves a named predictor configuration from the registry and
// writes the per-table organization report the -pred flag prints: for each
// of the predictor's tables, the physical organization, read energy, and
// access time the frontend layer chose.
func predReport(w io.Writer, name string, banked bool) error {
	spec, err := bpred.ByName(name)
	if err != nil {
		return err
	}
	p := spec.Build()
	m := power.NewMeter(config.Default().CycleSeconds())
	built, err := frontend.NewRegistry().Build(frontend.Spec{
		Structures: []frontend.Structure{frontend.Predictor{Tables: p.Tables()}},
		Transforms: frontend.Transforms{BankedPredictor: banked},
	}, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s (%d Kbits)\n", spec.Name, p.TotalBits()/1024)
	fmt.Fprintf(w, "%-16s %8s %6s %6s %-22s %10s %10s\n",
		"table", "entries", "width", "banks", "organization", "energy pJ", "access ns")
	for _, ba := range built.Arrays() {
		fmt.Fprintf(w, "%-16s %8d %6d %6d %-22v %10.1f %10.3f\n",
			ba.Array.Name, ba.Array.Spec.Entries, ba.Array.Spec.Width,
			max(1, ba.Array.Spec.Banks), ba.Org, ba.Unit.ERead*1e12, ba.AccessTime*1e9)
	}
	return nil
}

// repriceReport demonstrates activity/price decoupling on a named predictor:
// one short 164.gzip simulation supplies the activity vector, and the eight
// pricing-key variants (flat/banked x CC0..CC3) are folded from it. The
// trailing simulations/folds line is the proof the variants were repriced,
// not re-run.
func repriceReport(w io.Writer, name string) error {
	spec, err := bpred.ByName(name)
	if err != nil {
		return err
	}
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		return err
	}
	h := experiments.NewHarness(experiments.RunConfig{WarmupInsts: 2000, MeasureInsts: 4000})
	h.Parallel = 1
	fmt.Fprintf(w, "%s repriced on %s (2k warmup + 4k measured insts)\n", spec.Name, bench.Name)
	fmt.Fprintf(w, "%-6s %-8s %12s %10s %12s %14s\n",
		"style", "arrays", "bpred mW", "total W", "total uJ", "ED (uJ*ms)")
	for _, bankedVariant := range []bool{false, true} {
		arrays := "flat"
		if bankedVariant {
			arrays = "banked"
		}
		for _, style := range []power.GatingStyle{power.CC0, power.CC1, power.CC2, power.CC3} {
			r := h.Simulate(bench, cpu.Options{
				Predictor:       spec,
				BankedPredictor: bankedVariant,
				ClockGating:     style,
			})
			fmt.Fprintf(w, "%-6s %-8s %12.3f %10.2f %12.1f %14.4f\n",
				style, arrays, r.BpredPower*1e3, r.TotalPower, r.TotalEnergy*1e6, r.EnergyDelay*1e9)
		}
	}
	if err := h.Err(); err != nil {
		return err
	}
	// Every cache miss the store did not answer ran one simulation.
	st := h.Cache.Stats()
	fmt.Fprintf(w, "simulations=%d folds=%d\n", st.Misses-st.StoreHits, st.RepriceFolds)
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
