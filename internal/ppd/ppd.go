// Package ppd implements the paper's primary new structure, the Prediction
// Probe Detector (Section 4.2): a small table with exactly one two-bit entry
// per I-cache line. One bit records whether the line contains any
// conditional branch (so the direction-predictor lookup is needed); the
// other records whether it contains any control-flow instruction at all (so
// the BTB lookup is needed). Entries are written with pre-decode information
// while the I-cache line is refilled after a miss, so the PPD is always
// coherent with the cache contents and gating a lookup can never change a
// prediction — only save the energy of lookups that could not have mattered.
//
// Because the fetch engine must otherwise probe the direction predictor and
// BTB every active fetch cycle (the structures are accessed in parallel with
// the I-cache, before the fetched bits are available), and the average
// distance between control-flow instructions is ~12 instructions (Figure
// 14), most of those probes are useless; the PPD eliminates them at the cost
// of its own (4 Kbit) access each cycle.
//
// Two timing scenarios are modelled (Figure 15b):
//
//   - Scenario 1: the PPD result arrives in time to suppress the whole
//     BTB/direction-predictor access.
//   - Scenario 2: the accesses have already started; the PPD result arrives
//     after the bitlines but in time to gate the column multiplexors and
//     sense amplifiers, saving only that portion.
package ppd

import "fmt"

// Scenario selects the fetch timing assumption.
type Scenario uint8

const (
	// Off disables the PPD.
	Off Scenario = iota
	// Scenario1 suppresses entire lookups.
	Scenario1
	// Scenario2 cancels lookups after the bitlines (partial savings).
	Scenario2
)

var scenarioNames = [...]string{Off: "off", Scenario1: "scenario1", Scenario2: "scenario2"}

// String returns the scenario name.
func (s Scenario) String() string {
	if int(s) < len(scenarioNames) {
		return scenarioNames[s]
	}
	return fmt.Sprintf("scenario(%d)", uint8(s))
}

// entry bit assignments.
const (
	bitCond = 1 << 0 // line contains a conditional branch
	bitCtl  = 1 << 1 // line contains any control-flow instruction
)

// PPD is the prediction probe detector table.
type PPD struct {
	bits  []uint8
	valid []bool

	probes, dirAvoided, btbAvoided uint64
}

// New builds a PPD with one entry per I-cache line.
func New(numLines int) *PPD {
	if numLines <= 0 {
		panic("ppd: need at least one line")
	}
	return &PPD{bits: make([]uint8, numLines), valid: make([]bool, numLines)}
}

// Entries returns the table's entry count.
func (p *PPD) Entries() int { return len(p.bits) }

// Bits returns the table's total storage in bits (two per entry).
func (p *PPD) Bits() int { return 2 * len(p.bits) }

// Fill installs pre-decode bits for the I-cache line at lineIndex. Call it
// from the I-cache refill path.
func (p *PPD) Fill(lineIndex int, hasCond, hasCtl bool) {
	var b uint8
	if hasCond {
		b |= bitCond
	}
	if hasCtl {
		b |= bitCtl
	}
	p.bits[lineIndex] = b
	p.valid[lineIndex] = true
}

// Probe consults the entry for the I-cache line at lineIndex and reports
// whether the direction predictor and BTB must be looked up this fetch
// cycle. Unfilled entries answer conservatively (both lookups needed).
// Probe also accumulates the avoidance statistics.
//
//bp:hotpath
func (p *PPD) Probe(lineIndex int) (needDir, needBTB bool) {
	p.probes++
	if !p.valid[lineIndex] {
		return true, true
	}
	b := p.bits[lineIndex]
	needDir = b&bitCond != 0
	needBTB = b&bitCtl != 0
	if !needDir {
		p.dirAvoided++
	}
	if !needBTB {
		p.btbAvoided++
	}
	return needDir, needBTB
}

// Stats returns (probes, direction lookups avoided, BTB lookups avoided).
func (p *PPD) Stats() (probes, dirAvoided, btbAvoided uint64) {
	return p.probes, p.dirAvoided, p.btbAvoided
}

// Reset clears all entries and statistics.
func (p *PPD) Reset() {
	for i := range p.bits {
		p.bits[i] = 0
		p.valid[i] = false
	}
	p.probes, p.dirAvoided, p.btbAvoided = 0, 0, 0
}
