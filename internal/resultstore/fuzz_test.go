package resultstore

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/power"
)

// FuzzActivityEntryDecode writes arbitrary bytes as the activity entry of a
// valid key and loads it. A load may only end one of two ways: a miss that
// counts the entry corrupt, or a record that every clock-gating style either
// prices to finite, non-negative power and energy or refuses with an error.
// A record that prices must also be possible: no unit active on more cycles
// than the record spans, whose idle term would wrap to a huge but finite
// energy. Anything else would let a damaged file reach a response as a
// number.
func FuzzActivityEntryDecode(f *testing.F) {
	opt := cpu.Options{Predictor: bpred.Hybrid1}
	rc := experiments.RunConfig{WarmupInsts: 4000, MeasureInsts: 8000}
	key := activityKeyString("164.gzip", opt, rc)

	m, err := cpu.NewMeter(opt)
	if err != nil {
		f.Fatal(err)
	}
	act := m.Activity() // the right unit names, in registration order
	act.Cycles = 20000
	for i := range act.Units {
		act.Units[i] = power.UnitActivity{Name: act.Units[i].Name, ActiveCycles: uint64(500 * i), Reads: uint64(900 * i), Writes: uint64(i), Partials: 7}
	}
	seed := func(a power.Activity) []byte {
		data, err := json.Marshal(actFileEntry{Key: key, Record: experiments.ActivityRecord{
			Run:      experiments.Run{Benchmark: "164.gzip", Machine: "Hybrid_1", IPC: 1.5, Committed: 8000},
			Activity: a,
		}})
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seed(act))
	over := act
	over.Units = append([]power.UnitActivity(nil), act.Units...)
	over.Units[0].ActiveCycles = act.Cycles + 1
	f.Add(seed(over))
	f.Add(seed(power.Activity{Cycles: 5, Units: act.Units[:3]}))
	f.Add([]byte(`{"key":"v1|act|other","record":{}}`))
	f.Add([]byte(`{garbage`))
	f.Add([]byte(``))

	dir := f.TempDir()
	s, err := Open(dir, Config{MaxBytes: -1})
	if err != nil {
		f.Fatal(err)
	}
	path := s.activityPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats().Corrupt
		rec, ok := s.LoadActivity("164.gzip", opt, rc)
		if !ok {
			if got := s.Stats().Corrupt - before; got != 1 {
				t.Fatalf("load missed but counted %d corrupt entries, want 1", got)
			}
			return
		}
		for _, style := range []power.GatingStyle{power.CC0, power.CC1, power.CC2, power.CC3} {
			priced := opt
			priced.ClockGating = style
			r, err := experiments.Reprice(rec, priced)
			if err != nil {
				continue
			}
			for _, ua := range rec.Activity.Units {
				if ua.ActiveCycles > rec.Activity.Cycles {
					t.Fatalf("%s: priced unit %s active on %d of %d cycles", style, ua.Name, ua.ActiveCycles, rec.Activity.Cycles)
				}
			}
			for i, v := range []float64{r.BpredPower, r.TotalPower, r.BpredEnergy, r.TotalEnergy, r.EnergyDelay} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%s: record folded to %v in power metric %d of BpredPower, TotalPower, BpredEnergy, TotalEnergy, EnergyDelay", style, v, i)
				}
			}
		}
	})
}
