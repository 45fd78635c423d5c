package power

import (
	"encoding/json"
	"reflect"
	"testing"
)

// activityFixture builds a meter with a couple of units and some recorded
// activity, returning the meter and a factory for pristine twins.
func activityFixture() (*Meter, func() *Meter) {
	build := func() *Meter {
		m := NewMeter(1e-9)
		m.Add(testUnit("a", GroupBpred, 2e-12, 2))
		m.Add(testUnit("b", GroupALU, 5e-12, 4))
		return m
	}
	m := build()
	a, b := m.units[0], m.units[1]
	for i := 0; i < 7; i++ {
		a.Read(1)
		if i%2 == 0 {
			b.Write(2)
		}
		m.EndCycle()
	}
	return m, build
}

func TestActivityRoundTripReprices(t *testing.T) {
	m, build := activityFixture()
	act := m.Activity()
	if act.Cycles != 7 || len(act.Units) != 2 {
		t.Fatalf("activity = %+v", act)
	}

	// JSON round trip is exact: integer counters, no floats.
	data, err := json.Marshal(act)
	if err != nil {
		t.Fatal(err)
	}
	var back Activity
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, act) {
		t.Fatalf("JSON round trip changed the activity: %+v vs %+v", back, act)
	}

	// A pristine twin loaded with the vector prices identically — same
	// float64 bits, since the folds are the same operations in the same
	// order over the same counters.
	twin := build()
	if err := twin.SetActivity(back); err != nil {
		t.Fatal(err)
	}
	if got, want := twin.TotalEnergy(), m.TotalEnergy(); got != want {
		t.Fatalf("repriced TotalEnergy = %v, want %v (bit-exact)", got, want)
	}
	if got, want := twin.AveragePower(), m.AveragePower(); got != want {
		t.Fatalf("repriced AveragePower = %v, want %v", got, want)
	}
	if got, want := twin.EnergyDelay(), m.EnergyDelay(); got != want {
		t.Fatalf("repriced EnergyDelay = %v, want %v", got, want)
	}
}

func TestActivityRepricesUnderOtherGatingStyles(t *testing.T) {
	m, build := activityFixture()
	act := m.Activity()
	for _, style := range []GatingStyle{CC0, CC1, CC2} {
		ref := build()
		ref.Style = style
		a, b := ref.units[0], ref.units[1]
		for i := 0; i < 7; i++ {
			a.Read(1)
			if i%2 == 0 {
				b.Write(2)
			}
			ref.EndCycle()
		}
		twin := build()
		twin.Style = style
		if err := twin.SetActivity(act); err != nil {
			t.Fatal(err)
		}
		if got, want := twin.TotalEnergy(), ref.TotalEnergy(); got != want {
			t.Fatalf("style %v: repriced %v, simulated %v", style, got, want)
		}
	}
}

func TestSetActivityRejectsMismatches(t *testing.T) {
	m, build := activityFixture()
	act := m.Activity()

	short := act
	short.Units = act.Units[:1]
	if err := build().SetActivity(short); err == nil {
		t.Fatal("length mismatch accepted")
	}

	renamed := act
	renamed.Units = append([]UnitActivity(nil), act.Units...)
	renamed.Units[1].Name = "zzz"
	if err := build().SetActivity(renamed); err == nil {
		t.Fatal("unknown unit name accepted")
	}

	dup := act
	dup.Units = append([]UnitActivity(nil), act.Units...)
	dup.Units[1].Name = dup.Units[0].Name
	if err := build().SetActivity(dup); err == nil {
		t.Fatal("duplicate unit name accepted")
	}

	// Matching is positional: the same units in another order are a vector
	// from a differently registered machine.
	reordered := act
	reordered.Units = []UnitActivity{act.Units[1], act.Units[0]}
	if err := build().SetActivity(reordered); err == nil {
		t.Fatal("reordered units accepted")
	}

	// A unit active on more cycles than the vector spans is impossible; its
	// idle term would wrap around instead of pricing anything.
	overActive := act
	overActive.Units = append([]UnitActivity(nil), act.Units...)
	overActive.Units[1].ActiveCycles = act.Cycles + 1
	if err := build().SetActivity(overActive); err == nil {
		t.Fatal("ActiveCycles > Cycles accepted")
	}

	// A failed restore leaves the meter untouched, also when the bad entry
	// comes after a valid one.
	for _, bad := range []Activity{renamed, overActive} {
		partial := build()
		if err := partial.SetActivity(bad); err == nil {
			t.Fatal("expected error")
		}
		if !reflect.DeepEqual(partial.Activity(), build().Activity()) || partial.TotalEnergy() != 0 {
			t.Fatalf("failed restore dirtied the meter: %+v", partial.Activity())
		}
	}
}

func TestParseGatingStyle(t *testing.T) {
	for _, style := range []GatingStyle{CC0, CC1, CC2, CC3} {
		got, err := ParseGatingStyle(style.String())
		if err != nil || got != style {
			t.Fatalf("ParseGatingStyle(%q) = %v, %v", style.String(), got, err)
		}
	}
	if _, err := ParseGatingStyle("cc9"); err == nil {
		t.Fatal("cc9 accepted")
	}
}
