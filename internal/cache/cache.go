// Package cache implements the memory hierarchy of Table 1: split 64KB
// 2-way L1 caches, a unified 2MB 4-way L2, main memory, and 128-entry
// fully-associative TLBs. Latencies and geometries default to the paper's
// baseline (L1 1 cycle, L2 11 cycles, memory 100 cycles, 30-cycle TLB miss).
//
// The models are timing + occupancy only (tags and LRU state, no data);
// the power model charges accesses via the same SRAM array energy model
// used for the predictor tables.
package cache

import (
	"fmt"
	"sync"
)

// Level is anything that can service a memory access and report its latency.
type Level interface {
	// Access performs a read (write=false) or write (write=true) of the
	// block containing addr and returns the total latency in cycles.
	Access(addr uint64, write bool) (latency int)
}

// MainMemory is the terminal level with a fixed access latency.
type MainMemory struct {
	// Latency is the access time in cycles (100 in Table 1).
	Latency int
	// Accesses counts requests that reached memory.
	Accesses uint64
}

// Access always "hits" at the fixed memory latency.
func (m *MainMemory) Access(addr uint64, write bool) int {
	m.Accesses++
	return m.Latency
}

// Config describes one cache level.
type Config struct {
	// Name labels the cache ("il1", "dl1", "ul2").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// BlockBytes is the line size.
	BlockBytes int
	// Ways is the set associativity.
	Ways int
	// HitLatency is the latency of a hit in cycles.
	HitLatency int
	// WriteBack selects write-back (true, as in Table 1) vs write-through.
	WriteBack bool
}

// Validate checks the geometry is realizable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.BlockBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by block*ways", c.Name, c.SizeBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: %d sets not a power of two", c.Name, sets)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockBytes)
	}
	return nil
}

// Sets returns the number of sets.
//
//bp:hotpath
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Ways) }

// NumLines is the total number of physical lines (sets * ways) a cache built
// from this config will hold. Exposed so geometry consumers (the standalone
// power meter in package cpu) need not construct the cache.
func (c Config) NumLines() int { return c.Sets() * c.Ways }

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

// Stats holds access counters for one cache.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses/accesses (0 when never accessed).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative, LRU, (optionally) write-back cache level.
type Cache struct {
	cfg   Config
	next  Level
	lines []line
	clock uint64
	stats Stats

	// blockShift/setMask/setShift are the precomputed power-of-two geometry
	// (Validate enforces it), so the per-access set/tag split is two shifts
	// and a mask instead of two 64-bit divisions.
	blockShift uint
	setShift   uint
	setMask    uint64

	// OnRefill, if non-nil, is invoked with the block-aligned address and
	// the physical line index (set*ways + way) of every line filled on a
	// miss. The PPD hooks I-cache refills here to install pre-decode bits
	// in the entry corresponding 1:1 to the refilled I-cache line.
	OnRefill func(blockAddr uint64, lineIndex int)

	// lastLine is the physical line index touched by the most recent
	// Access (hit way or refill victim); see LastLineIndex.
	lastLine int
}

// linePools recycles line storage across cache constructions, one sync.Pool
// per exact length. The line arrays dominate a simulator's footprint (the L2
// alone is hundreds of kilobytes), and figure sweeps build hundreds of
// simulators with identical geometry, so reuse turns that from steady
// allocation into a handful of arrays cycling through the pools. Recycled
// storage is zeroed before use — a pooled cache is indistinguishable from a
// freshly allocated one.
var linePools sync.Map // int (len) -> *sync.Pool of *[]line

func newLines(n int) []line {
	if p, ok := linePools.Load(n); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			ls := *v.(*[]line)
			clear(ls)
			return ls
		}
	}
	return make([]line, n)
}

func freeLines(ls []line) {
	if len(ls) == 0 {
		return
	}
	p, _ := linePools.LoadOrStore(len(ls), &sync.Pool{})
	p.(*sync.Pool).Put(&ls)
}

// New builds a cache level backed by next (which must not be nil).
func New(cfg Config, next Level) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if next == nil {
		panic(fmt.Sprintf("cache %s: nil next level", cfg.Name))
	}
	return &Cache{
		cfg:        cfg,
		next:       next,
		lines:      newLines(cfg.NumLines()),
		blockShift: log2u(uint64(cfg.BlockBytes)),
		setShift:   log2u(uint64(cfg.Sets())),
		setMask:    uint64(cfg.Sets() - 1),
	}
}

// Free returns the cache's line storage to the package pool for reuse by a
// later New. The cache must not be used afterwards.
func (c *Cache) Free() {
	freeLines(c.lines)
	c.lines = nil
}

// log2u returns log2 of a power of two.
func log2u(v uint64) uint {
	n := uint(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access counters.
//
//bp:hotpath
func (c *Cache) Stats() Stats { return c.stats }

//bp:hotpath
func (c *Cache) set(addr uint64) (base int, tag uint64) {
	block := addr >> c.blockShift
	return int(block&c.setMask) * c.cfg.Ways, block >> c.setShift
}

// Access services a read or write, filling on miss, and returns the total
// latency.
//
//bp:hotpath
func (c *Cache) Access(addr uint64, write bool) int {
	c.stats.Accesses++
	c.clock++
	base, tag := c.set(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			l.lru = c.clock
			c.lastLine = base + w
			if write {
				if c.cfg.WriteBack {
					l.dirty = true
				} else {
					// Write-through: propagate without stalling the hit.
					c.next.Access(addr, true) //bplint:allow hotpath -- write-through path; Level is the memory-hierarchy seam and the call is off the per-cycle common case
				}
			}
			c.stats.Hits++
			return c.cfg.HitLatency
		}
	}
	c.stats.Misses++
	lat := c.cfg.HitLatency + c.next.Access(addr, false) //bplint:allow hotpath -- miss path; Level is the memory-hierarchy seam and misses are off the per-cycle common case
	// Choose a victim: first invalid way, else LRU.
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			victim = base + w
			break
		}
		if l.lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	v := &c.lines[victim]
	if v.valid && v.dirty {
		c.stats.Writebacks++
		// Write-back of the victim overlaps the fill; charge no extra
		// latency but propagate occupancy to the next level.
		c.next.Access(v.tag*uint64(c.cfg.Sets()*c.cfg.BlockBytes), true) //bplint:allow hotpath -- dirty-victim write-back; off the per-cycle common case
	}
	*v = line{valid: true, dirty: write && c.cfg.WriteBack, tag: tag, lru: c.clock}
	c.lastLine = victim
	if c.OnRefill != nil {
		blockAddr := addr &^ uint64(c.cfg.BlockBytes-1)
		c.OnRefill(blockAddr, victim)
	}
	return lat
}

// LastLineIndex returns the physical line index (set*ways + way) touched by
// the most recent Access: the hit way, or the refill victim on a miss. The
// PPD uses it to select its line-coherent entry.
//
//bp:hotpath
func (c *Cache) LastLineIndex() int { return c.lastLine }

// NumLines returns the total number of physical lines (sets * ways).
func (c *Cache) NumLines() int { return len(c.lines) }

// Probe reports whether addr currently hits without touching LRU state or
// statistics (used by tests and by fetch-ahead heuristics).
func (c *Cache) Probe(addr uint64) bool {
	base, tag := c.set(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	c.clock = 0
	c.stats = Stats{}
}

// tlbHintBits sizes a TLB's page hint table at 1<<tlbHintBits slots.
const tlbHintBits = 8

// hintSlot hashes a VPN to its hint slot. The multiplicative (Fibonacci)
// hash folds the high VPN bits in: the data regions of a program sit at
// large power-of-two distances, so their pages agree in their low VPN bits,
// and a mask would send pages touched in lockstep to the same slot.
//
//bp:hotpath
func hintSlot(vpn uint64) uint64 { return (vpn * 0x9e3779b97f4a7c15) >> (64 - tlbHintBits) }

// TLB is a fully-associative translation lookaside buffer with LRU
// replacement and a fixed miss penalty.
type TLB struct {
	entries  []line
	pageBits uint
	missPen  int
	clock    uint64
	stats    Stats
	// mru indexes the most recently hit (or filled) entry. Translations are
	// heavily repetitive, so checking it first turns the common case into a
	// single compare instead of a full associative scan; statistics and LRU
	// state are updated identically on either path.
	mru int
	// hint maps a page (by hintSlot) to the entry that last held a page
	// with that hash, so a hit off the MRU entry is one verified compare
	// rather than a scan. A VPN is resident in at most one entry, so a hint
	// that verifies names the entry the scan would find; a stale or
	// colliding hint just falls back to the scan. Misses always scan, so
	// victims are chosen exactly as without the hint.
	hint [1 << tlbHintBits]int32
}

// NewTLB builds a TLB with the given entry count, page size, and miss
// penalty (Table 1: 128 entries, 30-cycle penalty; we use 8KB pages, the
// Alpha page size).
func NewTLB(entries int, pageBytes uint64, missPenalty int) *TLB {
	if entries <= 0 {
		panic("cache: TLB needs at least one entry")
	}
	if pageBytes == 0 || pageBytes&(pageBytes-1) != 0 {
		panic("cache: TLB page size must be a power of two")
	}
	bits := uint(0)
	for p := pageBytes; p > 1; p >>= 1 {
		bits++
	}
	return &TLB{entries: newLines(entries), pageBits: bits, missPen: missPenalty}
}

// Free returns the TLB's entry storage to the package pool for reuse by a
// later NewTLB. The TLB must not be used afterwards.
func (t *TLB) Free() {
	freeLines(t.entries)
	t.entries = nil
}

// Access translates addr, returning the added latency (0 on hit, the miss
// penalty on a miss).
//
//bp:hotpath
func (t *TLB) Access(addr uint64) int {
	t.stats.Accesses++
	t.clock++
	vpn := addr >> t.pageBits
	if e := &t.entries[t.mru]; e.valid && e.tag == vpn {
		e.lru = t.clock
		t.stats.Hits++
		return 0
	}
	h := &t.hint[hintSlot(vpn)]
	if i := int(*h); t.entries[i].valid && t.entries[i].tag == vpn {
		t.entries[i].lru = t.clock
		t.stats.Hits++
		t.mru = i
		return 0
	}
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.tag == vpn {
			e.lru = t.clock
			t.stats.Hits++
			t.mru = i
			*h = int32(i)
			return 0
		}
		if !e.valid {
			victim = i
		} else if t.entries[victim].valid && e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.stats.Misses++
	t.entries[victim] = line{valid: true, tag: vpn, lru: t.clock}
	t.mru = victim
	*h = int32(victim)
	return t.missPen
}

// Stats returns a copy of the TLB counters.
func (t *TLB) Stats() Stats { return t.stats }

// Reset invalidates all entries and clears statistics.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = line{}
	}
	t.clock = 0
	t.stats = Stats{}
	t.mru = 0
	clear(t.hint[:])
}
