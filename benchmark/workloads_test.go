package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

func TestSweepListsNeverRepeat(t *testing.T) {
	lists := sweepLists(1, 16)
	if len(lists) != 16*15*14*13 {
		t.Fatalf("got %d lists, want every ordered 4-list of 16 predictors", len(lists))
	}
	seen := map[[sweepWidth]uint8]bool{}
	for i, l := range lists {
		if seen[l] {
			t.Fatalf("list %d %v repeats an earlier list: its sweep would replay a finished job", i, l)
		}
		seen[l] = true
		used := map[uint8]bool{}
		for _, p := range l {
			if p >= 16 || used[p] {
				t.Fatalf("list %d %v names a predictor twice or out of range", i, l)
			}
			used[p] = true
		}
	}
	other := sweepLists(2, 16)
	if other[0] == lists[0] && other[1] == lists[1] && other[2] == lists[2] {
		t.Error("seeds 1 and 2 give the same sweep order")
	}
	if again := sweepLists(1, 16); again[100] != lists[100] {
		t.Error("the same seed gives another sweep order")
	}
}

func TestPermutation(t *testing.T) {
	p := permutation(7, 352)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("permutation repeats or leaves range at %d", v)
		}
		seen[v] = true
	}
}

// sweepBody renders a well-formed sweep response of n points.
func sweepBody(n int, energy func(i int) string) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "{\"id\":\"sw-1\",\"points\":%d}\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "{\"point\":%d,\"predictor\":\"P%d\",\"banked\":false,\"clock_gating\":\"cc3\",\"benchmark\":\"164.gzip\",\"machine\":\"P%d\",\"total_energy_j\":%s}\n", i, i, i, energy(i))
	}
	fmt.Fprintf(&b, "{\"done\":true,\"points\":%d,\"mean\":{}}\n", n)
	return []byte(b.String())
}

func TestPointLinesCheck(t *testing.T) {
	pl := &pointLines{lines: map[string]string{}}
	same := func(int) string { return "1.5" }
	if err := pl.check(sweepBody(3, same), 3); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	if err := pl.check(sweepBody(3, same), 3); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	if err := pl.check(sweepBody(3, func(i int) string { return fmt.Sprint(1.5 + float64(i/2)) }), 3); err == nil {
		t.Error("a point whose bytes changed between sweeps was accepted")
	}
	if err := pl.check(sweepBody(2, same), 3); err == nil {
		t.Error("a sweep with a missing point was accepted")
	}
	failed := strings.Replace(string(sweepBody(3, same)), `{"done":true`, `{"done":false`, 1)
	if err := pl.check([]byte(failed), 3); err == nil {
		t.Error("a sweep without a done trailer was accepted")
	}
}

func TestParseTracesAttributesStages(t *testing.T) {
	const out = `File: bpbenchmark
Type: cpu
-----------+-------------------------------------------------------
      30ms   bpredpower/internal/cache.(*TLB).Access
             bpredpower/internal/cpu.(*Sim).issue
             bpredpower/internal/cpu.(*Sim).step
-----------+-------------------------------------------------------
      10ms   bpredpower/internal/power.(*Unit).Read (inline)
             bpredpower/internal/cpu.(*Sim).chargeFetch
             bpredpower/internal/cpu.(*Sim).fetch
             bpredpower/internal/cpu.(*Sim).step
-----------+-------------------------------------------------------
     0.04s   bpredpower/internal/program.(*Walker).Step
             bpredpower/internal/cpu.(*Sim).fetchOne
             bpredpower/internal/cpu.(*Sim).fetch
             bpredpower/internal/cpu.(*Sim).step
-----------+-------------------------------------------------------
      20ms   bpredpower/internal/cpu.(*Sim).step
-----------+-------------------------------------------------------
     500ms   bpredpower/internal/program.Generate
             main.main
-----------+-------------------------------------------------------
`
	shares, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	// 100ms in the cycle loop; program generation outside it is ignored.
	want := map[string]float64{"issue": 0.3, "power": 0.1, "fetch": 0.4, "dispatch": 0}
	for st, w := range want {
		if got := shares["cpu.stage_share."+st]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s share = %g, want %g", st, got, w)
		}
	}
	if len(shares) != len(stages) {
		t.Errorf("got %d shares, want one per stage", len(shares))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics equal
// to the ones this program runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit+" "+m.Better)
		}
		for _, d := range defs {
			w = append(w, d.name+" "+d.unit+" "+d.better)
		}
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("BENCHMARK.json %s metrics\n%v\nwant\n%v", kind, g, w)
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs)
	check("per_layer", b.PerLayer, layerDefs)
}
