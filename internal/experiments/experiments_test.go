package experiments

import (
	"bytes"
	"strings"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/ppd"
	"bpredpower/internal/workload"
)

// tiny is an even shorter config than Quick, for unit tests.
var tiny = RunConfig{WarmupInsts: 15000, MeasureInsts: 30000}

func TestSimulateMemoizes(t *testing.T) {
	h := NewHarness(tiny)
	b, _ := workload.ByName("164.gzip")
	r1 := h.Simulate(b, cpu.Options{Predictor: bpred.Bim4k})
	r2 := h.Simulate(b, cpu.Options{Predictor: bpred.Bim4k})
	if r1 != r2 {
		t.Error("memoized run differs")
	}
	if st := h.Cache.Stats(); st.Entries != 1 || st.Misses != 1 {
		t.Errorf("expected 1 cached record from 1 miss, have %d entries after %d misses", st.Entries, st.Misses)
	}
	// A pricing variant is a different Run of the same record: a fold, not
	// a second simulation and not the base Run.
	r3 := h.Simulate(b, cpu.Options{Predictor: bpred.Bim4k, BankedPredictor: true})
	if st := h.Cache.Stats(); st.Entries != 1 || st.Misses != 1 || st.RepriceFolds != 1 {
		t.Errorf("banked variant: %d entries, %d misses, %d folds; want 1, 1, 1", st.Entries, st.Misses, st.RepriceFolds)
	}
	if r3 == r1 {
		t.Error("banked variant returned the flat run")
	}
}

func TestMachineLabelsDistinct(t *testing.T) {
	opts := []cpu.Options{
		{Predictor: bpred.Bim4k},
		{Predictor: bpred.Bim4k, BankedPredictor: true},
		{Predictor: bpred.Bim4k, PPD: ppd.Scenario1},
		{Predictor: bpred.Bim4k, PPD: ppd.Scenario2},
		{Predictor: bpred.Bim4k, OldArrayModel: true},
		{Predictor: bpred.Gsh16k12},
	}
	seen := map[string]bool{}
	for _, o := range opts {
		l := machineLabel(o)
		if seen[l] {
			t.Errorf("duplicate label %q", l)
		}
		seen[l] = true
	}
}

func TestRunFieldsPopulated(t *testing.T) {
	h := NewHarness(tiny)
	b, _ := workload.ByName("164.gzip")
	r := h.Simulate(b, cpu.Options{Predictor: bpred.Hybrid1})
	if r.Accuracy <= 0.5 || r.Accuracy > 1 {
		t.Errorf("accuracy %v", r.Accuracy)
	}
	if r.IPC <= 0 || r.TotalPower <= 0 || r.BpredPower <= 0 {
		t.Error("power/IPC not populated")
	}
	if r.TotalEnergy <= r.BpredEnergy || r.EnergyDelay <= 0 {
		t.Error("energy fields inconsistent")
	}
	if r.Committed < tiny.MeasureInsts {
		t.Errorf("committed %d < requested %d", r.Committed, tiny.MeasureInsts)
	}
}

func TestTable1Static(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"RUU=80", "LSQ=40", "2048-entry, 2-way", "1200 MHz"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable3AndFigure3Static(t *testing.T) {
	var buf bytes.Buffer
	Table3(&buf)
	if !strings.Contains(buf.String(), "64Kbits") {
		t.Error("Table 3 missing sizes")
	}
	buf.Reset()
	Figure3(&buf)
	out := buf.String()
	if !strings.Contains(out, "65536") || !strings.Contains(out, "cycle.new") {
		t.Error("Figure 3 incomplete")
	}
	buf.Reset()
	Figure11(&buf)
	if !strings.Contains(buf.String(), "cycle.bank") {
		t.Error("Figure 11 incomplete")
	}
}

func TestFigure14Shape(t *testing.T) {
	h := NewHarness(tiny)
	var buf bytes.Buffer
	Figure14(h, &buf)
	out := buf.String()
	for _, b := range workload.Subset7() {
		if !strings.Contains(out, b.Name) {
			t.Errorf("Figure 14 missing %s", b.Name)
		}
	}
}

// TestPaperHeadlines verifies the paper's headline claims hold on a small
// but real configuration sweep:
//  1. accurate large predictors reduce chip-wide energy despite more local
//     predictor energy;
//  2. the PPD cuts predictor energy substantially and overall energy by a
//     few percent without touching accuracy;
//  3. banking saves predictor power without touching accuracy;
//  4. predictor structures are ~10% of chip power;
//  5. banking's chip-wide energy saving is positive but modest (~1%).
func TestPaperHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	h := NewHarness(RunConfig{WarmupInsts: 60000, MeasureInsts: 100000})
	bs := []workload.Benchmark{
		mustBench(t, "254.gap"), mustBench(t, "197.parser"), mustBench(t, "186.crafty"),
	}

	// 1: Bim_128 vs Hybrid_4.
	small := h.SimulateAll(bs, cpu.Options{Predictor: bpred.Bim128})
	large := h.SimulateAll(bs, cpu.Options{Predictor: bpred.Hybrid4})
	if mean(large, func(r Run) float64 { return r.Accuracy }) <= mean(small, func(r Run) float64 { return r.Accuracy }) {
		t.Error("large hybrid not more accurate than tiny bimodal")
	}
	if mean(large, func(r Run) float64 { return r.BpredEnergy }) <= mean(small, func(r Run) float64 { return r.BpredEnergy }) {
		t.Error("large hybrid should spend more energy locally in the predictor")
	}
	if mean(large, func(r Run) float64 { return r.TotalEnergy }) >= mean(small, func(r Run) float64 { return r.TotalEnergy }) {
		t.Error("large hybrid should reduce chip-wide energy (the paper's headline)")
	}

	// 2: PPD on GAs_32k.
	base := h.SimulateAll(bs, cpu.Options{Predictor: bpred.GAs32k8})
	withPPD := h.SimulateAll(bs, cpu.Options{Predictor: bpred.GAs32k8, PPD: ppd.Scenario1})
	for i := range base {
		if base[i].Accuracy != withPPD[i].Accuracy {
			t.Error("PPD changed accuracy")
		}
	}
	bpSave := 1 - mean(withPPD, func(r Run) float64 { return r.BpredEnergy })/mean(base, func(r Run) float64 { return r.BpredEnergy })
	totSave := 1 - mean(withPPD, func(r Run) float64 { return r.TotalEnergy })/mean(base, func(r Run) float64 { return r.TotalEnergy })
	if bpSave < 0.25 {
		t.Errorf("PPD saves only %.1f%% of predictor energy (paper: ~45%%)", 100*bpSave)
	}
	if totSave < 0.01 {
		t.Errorf("PPD saves only %.2f%% of total energy (paper: 5-6%%)", 100*totSave)
	}

	// 3: banking.
	banked := h.SimulateAll(bs, cpu.Options{Predictor: bpred.GAs32k8, BankedPredictor: true})
	if mean(banked, func(r Run) float64 { return r.BpredPower }) >= mean(base, func(r Run) float64 { return r.BpredPower }) {
		t.Error("banking did not reduce predictor power")
	}
	for i := range base {
		if base[i].Accuracy != banked[i].Accuracy {
			t.Error("banking changed accuracy")
		}
	}

	// 4: predictor share of chip power, for every configuration above
	// without the PPD (which exists to shrink it). The four suite means
	// measure 9.4-11.0%; the band leaves 1.4 points below and 3 above.
	for _, runs := range [][]Run{small, large, base, banked} {
		share := mean(runs, func(r Run) float64 { return r.BpredPower / r.TotalPower })
		if share < 0.08 || share > 0.14 {
			t.Errorf("%s predictor share of chip power %.1f%%, want 8-14%% (paper: \"10%% or more\")",
				runs[0].Machine, 100*share)
		}
	}

	// 5: banking GAs_32k8 saves 1.43% of chip energy here (1.27-1.61% per
	// benchmark); the bound allows up to 2%.
	bankSave := 1 - mean(banked, func(r Run) float64 { return r.TotalEnergy })/mean(base, func(r Run) float64 { return r.TotalEnergy })
	if bankSave <= 0 || bankSave > 0.02 {
		t.Errorf("banking saves %.2f%% of chip energy, want (0, 2%%] (paper: ~1%%)", 100*bankSave)
	}
}

func mustBench(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMeanHelper(t *testing.T) {
	rs := []Run{{IPC: 1}, {IPC: 3}}
	if m := mean(rs, func(r Run) float64 { return r.IPC }); m != 2 {
		t.Errorf("mean = %v", m)
	}
	if mean(nil, func(r Run) float64 { return 1 }) != 0 {
		t.Error("mean of empty should be 0")
	}
}

func TestShortName(t *testing.T) {
	if shortName("164.gzip") != "gzip" || shortName("plain") != "plain" {
		t.Error("shortName broken")
	}
}

// TestAllFiguresSmoke runs every table and figure with very short windows,
// checking they produce non-empty, well-formed output. This is the
// experiment harness's integration test (several tens of seconds).
func TestAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep is slow")
	}
	h := NewHarness(RunConfig{WarmupInsts: 8000, MeasureInsts: 15000})
	var buf bytes.Buffer
	All(h, &buf)
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3",
		"Figure 2", "Figure 3",
		"Figure 5a", "Figure 5b", "Figure 6a", "Figure 6b", "Figure 6c",
		"Figure 7a", "Figure 7b", "Figure 8a", "Figure 9b", "Figure 10a",
		"Figure 11", "Figures 12-13", "Figure 14", "Figures 16-17",
		"Figure 19", "Extension: confidence",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Every paper configuration appears in the sweep matrices.
	for _, spec := range bpred.PaperConfigs() {
		if !strings.Contains(out, spec.Name) {
			t.Errorf("output missing configuration %s", spec.Name)
		}
	}
	// All 22 benchmarks appear in Table 2.
	for _, b := range workload.All() {
		if !strings.Contains(out, b.Name) {
			t.Errorf("output missing benchmark %s", b.Name)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Error("output contains NaN/Inf")
	}
}
