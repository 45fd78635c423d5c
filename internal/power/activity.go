package power

import "fmt"

// UnitActivity is one unit's lifetime activity, the integer counters the
// accounting kernel accumulates and the closed-form fold consumes.
// It carries no energies and no organization parameters: it is pure
// execution-side state, invariant under every pricing transform (banking,
// array model, clock-gating style).
type UnitActivity struct {
	// Name is the unit's registered name ("bpred.pht", "il1.data", ...).
	Name string `json:"name"`
	// ActiveCycles is the number of cycles with at least one access.
	ActiveCycles uint64 `json:"active_cycles"` //bp:unit cycle
	// Reads, Writes, Partials are lifetime access counts by kind.
	Reads    uint64 `json:"reads"`
	Writes   uint64 `json:"writes"`
	Partials uint64 `json:"partials"`
}

// Activity is the serializable projection of a meter's accounting state: total cycles plus every unit's lifetime counters, in registration
// order. Two simulations that differ only in pricing options (which units
// cost, not which accesses happen) export bit-identical Activity values, so
// one exported vector can be repriced under any pricing configuration via
// SetActivity on a meter built for that configuration.
type Activity struct {
	// Cycles is the meter's total elapsed cycles.
	Cycles uint64 `json:"cycles"` //bp:unit cycle
	// Units holds per-unit counters in meter registration order.
	Units []UnitActivity `json:"units"`
}

// Activity exports the meter's lifetime accounting as a per-unit counter
// vector. It is a pure read: the meter is unchanged and can keep simulating.
func (m *Meter) Activity() Activity {
	a := Activity{Cycles: m.cycles, Units: make([]UnitActivity, len(m.units))}
	for i, u := range m.units {
		a.Units[i] = UnitActivity{
			Name:         u.Name,
			ActiveCycles: u.activeCycles,
			Reads:        u.totalReads,
			Writes:       u.totalWrites,
			Partials:     u.totalPartials,
		}
	}
	return a
}

// SetActivity loads a previously exported activity vector into the meter, so
// the closed-form read accessors (TotalEnergy, AveragePower, EnergyDelay, ...)
// price that activity under this meter's unit energies and gating style.
// Units are matched by position — the registration order Activity exports —
// and every entry must name the meter unit at its position. A mismatch means
// the activity was exported from a differently shaped machine and is an
// error, never a silent partial restore. So is a unit active on more cycles
// than the vector records: no simulation exports one, and its idle term
// (Cycles − ActiveCycles) would wrap around to an absurd energy.
func (m *Meter) SetActivity(a Activity) error {
	if len(a.Units) != len(m.units) {
		return fmt.Errorf("power: activity has %d units, meter has %d", len(a.Units), len(m.units))
	}
	// Validate the whole vector before touching any unit, so a failed
	// restore leaves the meter unmodified. Meter names are unique, so the
	// positional match also rejects a vector naming some unit twice.
	for i, ua := range a.Units {
		if want := m.units[i].Name; ua.Name != want {
			if m.byName[ua.Name] == nil {
				return fmt.Errorf("power: activity names unknown unit %q", ua.Name)
			}
			return fmt.Errorf("power: activity unit %d is %q, meter registers %q there", i, ua.Name, want)
		}
		if ua.ActiveCycles > a.Cycles {
			return fmt.Errorf("power: activity unit %q is active on %d of %d cycles", ua.Name, ua.ActiveCycles, a.Cycles)
		}
	}
	for i, ua := range a.Units {
		u := m.units[i]
		u.activeCycles = ua.ActiveCycles
		u.totalReads = ua.Reads
		u.totalWrites = ua.Writes
		u.totalPartials = ua.Partials
		u.lastActive = ^uint64(0) // no cycle in progress
	}
	m.cycles = a.Cycles
	return nil
}

// ParseGatingStyle resolves a conditional-clocking style name as printed by
// GatingStyle.String ("cc0".."cc3").
func ParseGatingStyle(name string) (GatingStyle, error) {
	for i, n := range gatingNames {
		if n == name {
			return GatingStyle(i), nil
		}
	}
	return 0, fmt.Errorf("power: unknown clock-gating style %q (have cc0, cc1, cc2, cc3)", name)
}
