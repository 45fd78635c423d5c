// Package btb implements the branch target buffer: a set-associative cache
// of branch target addresses accessed in parallel with the I-cache and the
// direction predictor every active fetch cycle.
//
// The paper's baseline models a separate 2-way associative, 2K-entry BTB
// (unlike the Alpha 21264's integrated next-line predictor) because most
// contemporary processors used one. Its power model includes the tag
// comparators, tag bit drivers, and multiplexor drivers in addition to the
// data array — components package array accounts for via the BTB's
// TableSpec.
package btb

import "fmt"

type entry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64 // higher = more recently used
}

// BTB is a set-associative branch target buffer.
type BTB struct {
	sets, ways int
	idxMask    uint64
	entries    []entry // sets*ways, way-major within a set
	clock      uint64

	// Statistics.
	lookups, hits, misses, updates uint64
}

// New builds a BTB with the given total entry count and associativity.
// entries must be a power of two and divisible by ways.
func New(entries, ways int) *BTB {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("btb: entries %d not a power of two", entries))
	}
	if ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("btb: %d entries not divisible into %d ways", entries, ways))
	}
	sets := entries / ways
	return &BTB{
		sets:    sets,
		ways:    ways,
		idxMask: uint64(sets - 1),
		entries: make([]entry, entries),
	}
}

// Sets returns the number of sets.
func (b *BTB) Sets() int { return b.sets }

// Ways returns the associativity.
func (b *BTB) Ways() int { return b.ways }

// Entries returns the total entry count.
func (b *BTB) Entries() int { return b.sets * b.ways }

//bp:hotpath
func (b *BTB) set(pc uint64) (int, uint64) {
	idx := (pc >> 2) & b.idxMask
	return int(idx) * b.ways, (pc >> 2) >> uint(log2(b.sets))
}

// Lookup probes the BTB for the control instruction at pc. On a hit it
// returns the cached target. The probe refreshes LRU state.
//
//bp:hotpath
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.lookups++
	b.clock++
	base, tag := b.set(pc)
	for w := 0; w < b.ways; w++ {
		e := &b.entries[base+w]
		if e.valid && e.tag == tag {
			e.lru = b.clock
			b.hits++
			return e.target, true
		}
	}
	b.misses++
	return 0, false
}

// Update installs or refreshes the mapping pc -> target, evicting the LRU
// way on a conflict. Call it at commit for taken control transfers.
//
//bp:hotpath
func (b *BTB) Update(pc, target uint64) {
	b.updates++
	b.clock++
	base, tag := b.set(pc)
	victim := base
	for w := 0; w < b.ways; w++ {
		e := &b.entries[base+w]
		if e.valid && e.tag == tag {
			e.target = target
			e.lru = b.clock
			return
		}
		if !e.valid {
			victim = base + w
			break
		}
		if e.lru < b.entries[victim].lru {
			victim = base + w
		}
	}
	b.entries[victim] = entry{valid: true, tag: tag, target: target, lru: b.clock}
}

// Stats returns (lookups, hits, misses, updates).
func (b *BTB) Stats() (lookups, hits, misses, updates uint64) {
	return b.lookups, b.hits, b.misses, b.updates
}

// HitRate returns the fraction of lookups that hit (0 when never probed).
func (b *BTB) HitRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}

// TagBits returns the tag width assumed by the power model for a vaddr-bits
// address space.
func (b *BTB) TagBits(vaddrBits int) int {
	t := vaddrBits - 2 - int(log2(b.sets))
	if t < 1 {
		t = 1
	}
	return t
}

// TargetBits is the width of a stored target address.
const TargetBits = 32

// Reset invalidates every entry and clears statistics.
func (b *BTB) Reset() {
	for i := range b.entries {
		b.entries[i] = entry{}
	}
	b.clock = 0
	b.lookups, b.hits, b.misses, b.updates = 0, 0, 0, 0
}

//bp:hotpath
func log2(n int) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
