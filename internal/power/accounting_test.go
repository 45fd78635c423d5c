package power

import (
	"fmt"
	"math"
	"testing"

	"bpredpower/internal/xrand"
)

// oracleUnit is the test's own bookkeeping for one unit: the integer
// counters Activity must export, and the joules the unit burned, summed
// cycle by cycle from the conditional-clocking definitions rather than from
// the meter's closed form.
type oracleUnit struct {
	act    UnitActivity
	joules float64
}

// cycleJoules is what a unit burns in one cycle with r reads, w writes and p
// partial accesses under style: Wattch's cc0 (no gating: always maximum),
// cc1 (whole-unit gating: maximum when touched, nothing when idle), cc2
// (ideal port scaling) and cc3 (port scaling with a 10% idle floor).
func cycleJoules(u *Unit, style GatingStyle, r, w, p int) float64 {
	maxE := float64(u.Ports) * u.ERead
	active := r+w+p > 0
	switch style {
	case CC0:
		return maxE
	case CC1:
		if active {
			return maxE
		}
		return 0
	case CC2:
		return float64(r)*u.ERead + float64(w)*u.EWrite + float64(p)*u.EPartial
	default: // CC3
		if active {
			return float64(r)*u.ERead + float64(w)*u.EWrite + float64(p)*u.EPartial
		}
		return IdleFraction * maxE
	}
}

// closeTo reports whether got is within 1e-12 of want, relatively. The
// oracle sums per cycle and the meter folds in closed form, so the two
// round differently and bits cannot be compared.
func closeTo(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(got), math.Abs(want))
}

// The meter's integer counters and closed-form energies must agree with an
// independent per-cycle accounting of the same trace: a seeded random mix of
// reads, writes and partial accesses (several per cycle, idle stretches
// included) over a machine-sized unit set, with a warm-up discard (Reset)
// part way through.
func TestAccountingMatchesOracle(t *testing.T) {
	const nUnits, cycles, resetAt = 34, 3000, 1100
	for _, style := range []GatingStyle{CC0, CC1, CC2, CC3} {
		t.Run(style.String(), func(t *testing.T) {
			rng := xrand.NewSplitMix(0x5eed + uint64(style))
			m := NewMeter(1.25e-9)
			m.Style = style
			units := make([]*Unit, nUnits)
			var maxPerCycle float64
			for i := range units {
				eRead := float64(1+rng.Intn(50)) * 1e-12
				units[i] = m.Add(&Unit{
					Name:     fmt.Sprintf("u%02d", i),
					Group:    Group(i % int(GroupClock)),
					ERead:    eRead,
					EWrite:   eRead * (0.5 + rng.Float64()),
					EPartial: eRead * rng.Float64() / 4,
					Ports:    1 + rng.Intn(4),
				})
				maxPerCycle += float64(units[i].Ports) * eRead
			}
			oracle := make([]oracleUnit, nUnits)
			var oracleCycles uint64
			var clockJoules float64

			for c := 0; c < cycles; c++ {
				if c == resetAt {
					m.Reset()
					oracle = make([]oracleUnit, nUnits)
					oracleCycles, clockJoules = 0, 0
				}
				idle := rng.Intn(8) == 0 // an all-idle cycle every so often
				var switched float64
				for i, u := range units {
					var r, w, p int
					if !idle {
						// Up to three calls per kind per cycle, each of
						// 0-2 accesses; zero-count calls must not count.
						for k := rng.Intn(4); k > 0; k-- {
							n := rng.Intn(3)
							switch rng.Intn(3) {
							case 0:
								u.Read(n)
								r += n
							case 1:
								u.Write(n)
								w += n
							default:
								u.Partial(n)
								p += n
							}
						}
					}
					o := &oracle[i]
					if r+w+p > 0 {
						o.act.ActiveCycles++
					}
					o.act.Reads += uint64(r)
					o.act.Writes += uint64(w)
					o.act.Partials += uint64(p)
					e := cycleJoules(u, style, r, w, p)
					o.joules += e
					switched += e
				}
				clockJoules += m.ClockBaseFraction*maxPerCycle + m.ClockActivityFraction*switched
				oracleCycles++
				m.EndCycle()
			}

			act := m.Activity()
			if act.Cycles != oracleCycles {
				t.Fatalf("Activity().Cycles = %d, oracle counted %d", act.Cycles, oracleCycles)
			}
			total := clockJoules
			for i, u := range units {
				want := oracle[i].act
				want.Name = u.Name
				if act.Units[i] != want {
					t.Errorf("unit %s: Activity() = %+v, oracle counted %+v", u.Name, act.Units[i], want)
				}
				if got := u.Energy(); !closeTo(got, oracle[i].joules) {
					t.Errorf("unit %s: Energy() = %v, oracle %v", u.Name, got, oracle[i].joules)
				}
				total += oracle[i].joules
			}
			if got := m.ClockEnergy(); !closeTo(got, clockJoules) {
				t.Errorf("ClockEnergy() = %v, oracle %v", got, clockJoules)
			}
			if got := m.TotalEnergy(); !closeTo(got, total) {
				t.Errorf("TotalEnergy() = %v, oracle %v", got, total)
			}
		})
	}
}

// Mid-run reads must not disturb the accounting: reading every metric each
// cycle is a pure observation.
func TestAccountingReadsArePure(t *testing.T) {
	m := NewMeter(1.25e-9)
	u := m.Add(NewFixedUnit("u", GroupALU, 1e-10, 2))
	var observed float64
	for c := 0; c < 100; c++ {
		if c%3 == 0 {
			u.Read(1)
		}
		m.EndCycle()
		observed = m.TotalEnergy() // interleaved reads
		_ = m.Breakdown()
	}
	ref := driveRef(3, 100)
	if observed != ref {
		t.Errorf("interleaved reads changed the result: %v != %v", observed, ref)
	}
}

// driveRef computes the same schedule with no interleaved reads.
func driveRef(every, cycles int) float64 {
	m := NewMeter(1.25e-9)
	u := m.Add(NewFixedUnit("u", GroupALU, 1e-10, 2))
	for c := 0; c < cycles; c++ {
		if c%every == 0 {
			u.Read(1)
		}
		m.EndCycle()
	}
	return m.TotalEnergy()
}

// Reset must clear every counter, so a warm-up discard leaves a meter that
// prices nothing until the next cycle.
func TestAccountingReset(t *testing.T) {
	m := NewMeter(1.25e-9)
	units := make([]*Unit, 8)
	for i := range units {
		units[i] = m.Add(NewFixedUnit(fmt.Sprintf("u%d", i), GroupALU, float64(i+1)*1e-11, 2))
	}
	for c := 0; c < 200; c++ {
		units[c%len(units)].Read(1)
		units[(c+3)%len(units)].Write(2)
		m.EndCycle()
	}
	m.Reset()
	if e := m.TotalEnergy(); e != 0 {
		t.Errorf("TotalEnergy %v after Reset, want 0", e)
	}
	if c := m.Cycles(); c != 0 {
		t.Errorf("Cycles %d after Reset, want 0", c)
	}
	for _, ua := range m.Activity().Units {
		if ua != (UnitActivity{Name: ua.Name}) {
			t.Errorf("unit %s keeps counters after Reset: %+v", ua.Name, ua)
		}
	}
}

// EndCycles(k) must be exactly k EndCycle calls: a meter that advances idle
// stretches in closed form reports the same activity vector and the same
// energies, bit for bit, as one stepped cycle by cycle, including for a unit
// first touched right after a jump.
func TestEndCyclesMatchesEndCycle(t *testing.T) {
	for _, style := range []GatingStyle{CC0, CC1, CC2, CC3} {
		stepped, jumped := NewMeter(1.25e-9), NewMeter(1.25e-9)
		stepped.Style, jumped.Style = style, style
		var su, ju []*Unit
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("u%d", i)
			su = append(su, stepped.Add(NewFixedUnit(name, GroupALU, float64(i+1)*1e-11, 2)))
			ju = append(ju, jumped.Add(NewFixedUnit(name, GroupALU, float64(i+1)*1e-11, 2)))
		}
		rng := xrand.NewSplitMix(0x1d1e + uint64(style))
		for c := 0; c < 400; c++ {
			i := rng.Intn(len(su))
			su[i].Read(1 + i%2)
			ju[i].Read(1 + i%2)
			stepped.EndCycle()
			jumped.EndCycle()
			idle := uint64(rng.Intn(40))
			for k := uint64(0); k < idle; k++ {
				stepped.EndCycle()
			}
			jumped.EndCycles(idle)
		}
		sa, ja := stepped.Activity(), jumped.Activity()
		if sa.Cycles != ja.Cycles {
			t.Fatalf("%s: cycles %d stepped, %d jumped", style, sa.Cycles, ja.Cycles)
		}
		for i := range sa.Units {
			if sa.Units[i] != ja.Units[i] {
				t.Errorf("%s: unit %d stepped %+v, jumped %+v", style, i, sa.Units[i], ja.Units[i])
			}
		}
		if s, j := stepped.TotalEnergy(), jumped.TotalEnergy(); math.Float64bits(s) != math.Float64bits(j) {
			t.Errorf("%s: total energy %v stepped, %v jumped", style, s, j)
		}
	}
}
