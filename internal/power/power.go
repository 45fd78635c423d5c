// Package power is the cycle-by-cycle activity-based power accountant, in
// the style of Wattch's "cc3" conditional clocking: a unit accessed n times
// in a cycle dissipates n/ports of its maximum power, and an idle unit still
// dissipates 10% of maximum (imperfect clock gating).
//
// Units are created from SRAM array specs (predictor tables, BTB, caches,
// register files) via package array, or from fixed per-operation energies
// (ALUs, result bus). A Meter owns the units, folds their per-cycle activity
// into accumulated energy, adds clock-tree power, and reports the metrics of
// Section 2.3: average instantaneous power, energy, energy-delay product.
package power

import (
	"fmt"
	"sort"

	"bpredpower/internal/array"
)

// Group classifies units for the paper's reporting: "predictor power"
// includes the direction predictor and the BTB (and the PPD when present).
type Group uint8

// Unit groups.
const (
	// GroupBpred is the direction predictor's tables.
	GroupBpred Group = iota
	// GroupBTB is the branch target buffer.
	GroupBTB
	// GroupRAS is the return-address stack.
	GroupRAS
	// GroupPPD is the prediction probe detector.
	GroupPPD
	// GroupFetch is the I-cache and ITLB.
	GroupFetch
	// GroupDispatch is decode/rename.
	GroupDispatch
	// GroupWindow is the RUU wakeup/select and LSQ.
	GroupWindow
	// GroupRegfile is the architectural register file.
	GroupRegfile
	// GroupDMem is the D-cache and DTLB.
	GroupDMem
	// GroupL2 is the unified L2.
	GroupL2
	// GroupALU is the execution units and result bus.
	GroupALU
	// GroupClock is the clock tree.
	GroupClock

	numGroups
)

var groupNames = [...]string{
	GroupBpred:    "bpred",
	GroupBTB:      "btb",
	GroupRAS:      "ras",
	GroupPPD:      "ppd",
	GroupFetch:    "fetch",
	GroupDispatch: "dispatch",
	GroupWindow:   "window",
	GroupRegfile:  "regfile",
	GroupDMem:     "dmem",
	GroupL2:       "l2",
	GroupALU:      "alu",
	GroupClock:    "clock",
}

// String returns the group name.
func (g Group) String() string {
	if int(g) < len(groupNames) {
		return groupNames[g]
	}
	return fmt.Sprintf("group(%d)", uint8(g))
}

// PredictorGroups are the groups the paper reports as "predictor power":
// direction predictor plus BTB (Section 1.1 note), plus RAS and PPD.
var PredictorGroups = map[Group]bool{
	GroupBpred: true,
	GroupBTB:   true,
	GroupRAS:   true,
	GroupPPD:   true,
}

// GatingStyle selects Wattch's conditional-clocking model. The paper's
// results all use CC3 ("non-ideal aggressive clock gating"); the other
// styles are provided for ablation, matching Wattch's cc0-cc2.
type GatingStyle uint8

const (
	// CC3 scales power linearly with port usage and charges inactive units
	// 10% of maximum (imperfect gating) — the paper's configuration.
	CC3 GatingStyle = iota
	// CC0 applies no clock gating: every unit burns maximum power every
	// cycle.
	CC0
	// CC1 gates whole units: an accessed unit burns full maximum power
	// regardless of how many ports fired; an idle unit burns nothing.
	CC1
	// CC2 is ideal gating: power scales linearly with port usage and idle
	// units burn nothing.
	CC2
)

var gatingNames = [...]string{CC3: "cc3", CC0: "cc0", CC1: "cc1", CC2: "cc2"}

// String returns the style name.
func (g GatingStyle) String() string {
	if int(g) < len(gatingNames) {
		return gatingNames[g]
	}
	return "cc?"
}

// IdleFraction is the cc3 clock-gating floor: inactive units dissipate this
// fraction of maximum power.
const IdleFraction = 0.10 //bp:unit 1

// Unit is one power-accounted structure.
type Unit struct {
	// Name identifies the unit ("bpred.pht", "il1", "ialu", ...).
	Name string
	// Group classifies it for reporting.
	Group Group
	// ERead, EWrite, EPartial are per-access energies in joules.
	ERead, EWrite, EPartial float64 //bp:unit J
	// Ports is the number of access ports (the cc3 scaling denominator):
	// the unit's maximum accesses per cycle, hence dimensionally 1/cycle.
	Ports int //bp:unit 1/cycle

	// meter and maxE are set by Meter.Add; maxE caches maxCycleEnergy so the
	// per-cycle fold never recomputes it.
	meter *Meter
	maxE  float64 //bp:unit J/cycle

	// lastActive is the meter cycle number of this unit's most recent access
	// (^0 = never), so counting an active cycle is a compare against the
	// meter clock on first touch — EndCycle has no per-unit work at all.
	lastActive uint64 //bp:unit cycle

	// Lifetime activity. These integers are the unit's entire accounting
	// state: active-cycle energy is their closed-form fold (activeEnergy),
	// and idle-cycle energy (the cc3 10% floor, or full maximum under cc0)
	// is a per-cycle constant applied as idleRate * idleCycles at read time.
	activeCycles                           uint64 //bp:unit cycle
	totalReads, totalWrites, totalPartials uint64 //bp:unit 1
}

// maxCycleEnergy is the energy the unit would burn with all ports active.
//
//bp:unit J/cycle
func (u *Unit) maxCycleEnergy() float64 { return float64(u.Ports) * u.ERead }

// touch counts an active cycle on the unit's first access of the cycle;
// repeat accesses in the same cycle see the matching stamp and fall through.
//
//bp:hotpath
func (u *Unit) touch() {
	if m := u.meter; m != nil && u.lastActive != m.cycles {
		u.lastActive = m.cycles
		u.activeCycles++
	}
}

// Read records n read accesses this cycle.
//
//bp:hotpath
func (u *Unit) Read(n int) {
	if n <= 0 {
		return
	}
	u.touch()
	u.totalReads += uint64(n)
}

// Write records n write accesses this cycle.
//
//bp:hotpath
func (u *Unit) Write(n int) {
	if n <= 0 {
		return
	}
	u.touch()
	u.totalWrites += uint64(n)
}

// Partial records n cancelled (Scenario 2) accesses this cycle.
//
//bp:hotpath
func (u *Unit) Partial(n int) {
	if n <= 0 {
		return
	}
	u.touch()
	u.totalPartials += uint64(n)
}

// idleRate is the energy the unit burns in a cycle with no accesses, under
// the owning meter's gating style.
//
//bp:hotpath
//bp:unit J/cycle
func (u *Unit) idleRate() float64 {
	if u.meter == nil {
		return 0
	}
	switch u.meter.Style {
	case CC0:
		return u.maxE
	case CC1, CC2:
		return 0
	default: // CC3
		return IdleFraction * u.maxE
	}
}

// activeEnergy is the closed-form fold of the unit's lifetime activity
// counters into active-cycle energy. The evaluation order is fixed —
// (reads·ERead + writes·EWrite) + partials·EPartial — so a simulated meter
// and a meter repriced from the same counters (SetActivity) agree
// bit-for-bit.
//
//bp:hotpath
//bp:unit J
func (u *Unit) activeEnergy() float64 {
	if u.meter == nil {
		return 0
	}
	switch u.meter.Style {
	case CC0, CC1:
		return float64(u.activeCycles) * u.maxE
	default: // CC2, CC3
		return float64(u.totalReads)*u.ERead + float64(u.totalWrites)*u.EWrite + float64(u.totalPartials)*u.EPartial
	}
}

// Energy returns the unit's accumulated energy in joules, including the
// lazily-accounted idle-cycle floor.
//
//bp:unit J
func (u *Unit) Energy() float64 {
	e := u.activeEnergy()
	if u.meter != nil {
		if idle := u.idleRate(); idle != 0 {
			e += idle * float64(u.meter.cycles-u.activeCycles)
		}
	}
	return e
}

// Accesses returns lifetime (reads, writes).
func (u *Unit) Accesses() (reads, writes uint64) { return u.totalReads, u.totalWrites }

// NewArrayUnit builds a unit whose access energies come from the SRAM array
// model for spec s in organization o.
func NewArrayUnit(name string, g Group, m array.Model, s array.Spec, o array.Org, ports int) *Unit {
	if ports < 1 {
		ports = 1
	}
	return &Unit{
		Name:     name,
		Group:    g,
		ERead:    m.ReadEnergy(s, o),
		EWrite:   m.WriteEnergy(s, o),
		EPartial: m.PartialReadEnergy(s, o),
		Ports:    ports,
	}
}

// NewFixedUnit builds a unit with a flat per-access energy (functional
// units, buses, latches).
//
//bp:unit eAccess J
func NewFixedUnit(name string, g Group, eAccess float64, ports int) *Unit {
	if ports < 1 {
		ports = 1
	}
	return &Unit{Name: name, Group: g, ERead: eAccess, EWrite: eAccess, EPartial: 0, Ports: ports}
}

// Meter accumulates per-cycle energy over a simulation.
type Meter struct {
	// CycleSeconds is the clock period, for power conversion.
	CycleSeconds float64 //bp:unit s/cycle
	// ClockBaseFraction sets the clock tree's floor as a fraction of the
	// sum of unit maximum powers; ClockActivityFraction adds clock energy
	// proportional to the cycle's switched energy (loaded clock nodes).
	ClockBaseFraction, ClockActivityFraction float64 //bp:unit 1
	// Style is the conditional-clocking model (default CC3, the paper's).
	Style GatingStyle

	units  []*Unit
	byName map[string]*Unit

	cycles      uint64  //bp:unit cycle
	maxPerCycle float64 //bp:unit J/cycle
}

// NewMeter builds a Meter for the given clock period.
//
//bp:unit cycleSeconds s/cycle
func NewMeter(cycleSeconds float64) *Meter {
	return &Meter{
		CycleSeconds:          cycleSeconds,
		ClockBaseFraction:     0.08,
		ClockActivityFraction: 0.22,
		// Pre-sized for the full machine model (~40 units) so registration
		// never regrows either container.
		units:  make([]*Unit, 0, 48),
		byName: make(map[string]*Unit, 48),
	}
}

// Add registers a unit. Names must be unique.
func (m *Meter) Add(u *Unit) *Unit {
	if _, dup := m.byName[u.Name]; dup {
		panic(fmt.Sprintf("power: duplicate unit %q", u.Name))
	}
	u.meter = m
	u.maxE = u.maxCycleEnergy()
	u.lastActive = ^uint64(0)
	m.units = append(m.units, u)
	m.byName[u.Name] = u
	m.maxPerCycle += u.maxE
	return u
}

// Unit returns the named unit, or nil.
func (m *Meter) Unit(name string) *Unit { return m.byName[name] }

// Units returns the registered units sorted by name.
func (m *Meter) Units() []*Unit {
	us := append([]*Unit(nil), m.units...)
	sort.Slice(us, func(i, j int) bool { return us[i].Name < us[j].Name })
	return us
}

// idlePerCycle is the energy all units together would burn in a cycle with
// no accesses at all — a constant per gating style, precomputable from the
// registered capacity.
//
//bp:hotpath
//bp:unit J/cycle
func (m *Meter) idlePerCycle() float64 {
	switch m.Style {
	case CC0:
		return m.maxPerCycle
	case CC1, CC2:
		return 0
	default: // CC3
		return IdleFraction * m.maxPerCycle
	}
}

// EndCycle advances the accounting clock. Access counts accumulate straight
// into the lifetime totals and active cycles are counted at first touch
// against that clock, so this is a single increment: no per-unit work runs
// in the simulator hot loop at all, and energy is recovered in closed form
// at read time.
//
//bp:hotpath
func (m *Meter) EndCycle() { m.cycles++ }

// ClockEnergy returns the clock tree's accumulated energy in joules, folded
// from the lifetime counters: a base term proportional to registered
// capacity and elapsed cycles, plus an activity term proportional to total
// switched energy. The switched total starts from the all-idle constant per
// cycle and swaps each unit's idle share for its real access energy over its
// active cycles; units are visited in registration order so the fold is
// deterministic.
//
//bp:unit J
func (m *Meter) ClockEnergy() float64 {
	switched := float64(m.cycles) * m.idlePerCycle()
	for _, u := range m.units {
		switched += u.activeEnergy() - u.idleRate()*float64(u.activeCycles)
	}
	return m.ClockBaseFraction*m.maxPerCycle*float64(m.cycles) + m.ClockActivityFraction*switched
}

// Cycles returns the number of accounted cycles.
func (m *Meter) Cycles() uint64 { return m.cycles }

// TotalEnergy returns the total energy in joules, including the clock tree.
//
//bp:unit J
func (m *Meter) TotalEnergy() float64 {
	e := m.ClockEnergy()
	for _, u := range m.units {
		e += u.Energy()
	}
	return e
}

// GroupEnergy returns the accumulated energy of one group (GroupClock maps
// to the clock tree).
//
//bp:unit J
func (m *Meter) GroupEnergy(g Group) float64 {
	if g == GroupClock {
		return m.ClockEnergy()
	}
	var e float64
	for _, u := range m.units {
		if u.Group == g {
			e += u.Energy()
		}
	}
	return e
}

// PredictorEnergy returns the energy of the branch-prediction structures
// (direction predictor + BTB + RAS + PPD), the paper's "predictor power"
// aggregation.
//
//bp:unit J
func (m *Meter) PredictorEnergy() float64 {
	var e float64
	for _, u := range m.units {
		if PredictorGroups[u.Group] {
			e += u.Energy()
		}
	}
	return e
}

// Seconds returns the accounted wall-clock time.
//
//bp:unit s
func (m *Meter) Seconds() float64 { return float64(m.cycles) * m.CycleSeconds }

// AveragePower returns total average power in watts.
//
//bp:unit W
func (m *Meter) AveragePower() float64 {
	if m.cycles == 0 {
		return 0
	}
	return m.TotalEnergy() / m.Seconds()
}

// PredictorPower returns average predictor power in watts.
//
//bp:unit W
func (m *Meter) PredictorPower() float64 {
	if m.cycles == 0 {
		return 0
	}
	return m.PredictorEnergy() / m.Seconds()
}

// EnergyDelay returns the energy-delay product in joule-seconds (Gonzalez &
// Horowitz), the paper's combined metric.
//
//bp:unit J*s
func (m *Meter) EnergyDelay() float64 { return m.TotalEnergy() * m.Seconds() }

// Reset zeroes all accumulated energy, activity, and cycle counts while
// keeping the registered units — used to discard warm-up before measuring.
func (m *Meter) Reset() {
	for _, u := range m.units {
		u.activeCycles = 0
		u.totalReads, u.totalWrites, u.totalPartials = 0, 0, 0
		u.lastActive = ^uint64(0)
	}
	m.cycles = 0
}

// unitState is one unit's accounting integers inside a MeterState.
type unitState struct {
	lastActive   uint64
	activeCycles uint64
	reads        uint64
	writes       uint64
	partials     uint64
}

// MeterState is a deep copy of the meter's lifetime accounting: every unit's
// activity counters and the meter clock. Because energy is a pure closed-form
// fold of these integers, restoring a MeterState reproduces every energy
// reading bit-for-bit.
type MeterState struct {
	units  []unitState
	cycles uint64
}

// State captures the meter's accounting state. Units are recorded in
// registration order, which is identical across meters built by the same
// construction sequence.
func (m *Meter) State() MeterState {
	s := MeterState{
		units:  make([]unitState, len(m.units)),
		cycles: m.cycles,
	}
	for i, u := range m.units {
		s.units[i] = unitState{
			lastActive:   u.lastActive,
			activeCycles: u.activeCycles,
			reads:        u.totalReads,
			writes:       u.totalWrites,
			partials:     u.totalPartials,
		}
	}
	return s
}

// SetState restores accounting previously captured from a meter with the
// same registered units.
func (m *Meter) SetState(s MeterState) {
	if len(s.units) != len(m.units) {
		panic(fmt.Sprintf("power: state has %d units, meter has %d", len(s.units), len(m.units)))
	}
	for i, u := range m.units {
		us := s.units[i]
		u.lastActive = us.lastActive
		u.activeCycles = us.activeCycles
		u.totalReads = us.reads
		u.totalWrites = us.writes
		u.totalPartials = us.partials
	}
	m.cycles = s.cycles
}

// Breakdown returns per-group energies in joules, keyed by group name, with
// "clock" included. Callers that print or accumulate order-sensitively must
// use BreakdownSorted instead: map iteration order is randomized.
func (m *Meter) Breakdown() map[string]float64 {
	out := map[string]float64{"clock": m.ClockEnergy()}
	for _, u := range m.units {
		out[u.Group.String()] += u.Energy()
	}
	return out
}

// GroupEnergyRow is one row of a sorted energy breakdown.
type GroupEnergyRow struct {
	// Name is the group name ("bpred", "clock", ...).
	Name string
	// Energy is the group's accumulated energy in joules.
	Energy float64 //bp:unit J
}

// BreakdownSorted returns the per-group energies of Breakdown as a slice in
// a deterministic order: descending energy, ties broken by name. Reports
// built from it are bit-for-bit reproducible across runs.
func (m *Meter) BreakdownSorted() []GroupEnergyRow {
	var energies [numGroups]float64
	var present [numGroups]bool
	for _, u := range m.units {
		energies[u.Group] += u.Energy()
		present[u.Group] = true
	}
	energies[GroupClock] = m.ClockEnergy()
	present[GroupClock] = true
	rows := make([]GroupEnergyRow, 0, numGroups)
	for g := Group(0); g < numGroups; g++ {
		if present[g] {
			rows = append(rows, GroupEnergyRow{Name: g.String(), Energy: energies[g]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Energy != rows[j].Energy {
			return rows[i].Energy > rows[j].Energy
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}
