package cache

import "testing"

// refTLB is a straightforward fully-associative LRU model with no MRU fast
// path, used as the semantic reference for TLB.Access.
type refTLB struct {
	tags  []uint64
	valid []bool
	lru   []uint64
	clock uint64
	bits  uint
}

func newRefTLB(entries int, bits uint) *refTLB {
	return &refTLB{
		tags:  make([]uint64, entries),
		valid: make([]bool, entries),
		lru:   make([]uint64, entries),
		bits:  bits,
	}
}

func (r *refTLB) access(addr uint64) bool {
	r.clock++
	vpn := addr >> r.bits
	victim := 0
	for i := range r.tags {
		if r.valid[i] && r.tags[i] == vpn {
			r.lru[i] = r.clock
			return true
		}
		if !r.valid[i] {
			victim = i
		} else if r.valid[victim] && r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	r.tags[victim], r.valid[victim], r.lru[victim] = vpn, true, r.clock
	return false
}

// The MRU fast path is an optimization only: hit/miss outcomes, statistics,
// and LRU replacement decisions must match the reference model on a long
// mixed address stream (repeats, strides, capacity-evicting sweeps).
func TestTLBMRUMatchesReference(t *testing.T) {
	const entries, pageBytes = 8, 8192
	tlb := NewTLB(entries, pageBytes, 30)
	ref := newRefTLB(entries, tlb.pageBits)

	var hits, misses uint64
	seq := uint64(0x243f6a8885a308d3)
	addr := uint64(0)
	for i := 0; i < 200000; i++ {
		seq = seq*6364136223846793005 + 1442695040888963407
		switch (seq >> 60) & 3 {
		case 0: // repeat the same page (MRU fast path)
		case 1: // small stride within a few pages
			addr += pageBytes / 2
		case 2: // jump within a working set that fits
			addr = (seq >> 20) % (entries / 2) * pageBytes
		default: // jump within a working set that exceeds capacity
			addr = (seq >> 20) % (4 * entries) * pageBytes
		}
		lat := tlb.Access(addr)
		hit := ref.access(addr)
		if (lat == 0) != hit {
			t.Fatalf("access %d (addr %#x): TLB %v, reference hit=%v", i, addr, lat, hit)
		}
		if hit {
			hits++
		} else {
			misses++
		}
	}
	st := tlb.Stats()
	if st.Hits != hits || st.Misses != misses {
		t.Fatalf("stats diverged: TLB %d/%d, reference %d/%d hits/misses", st.Hits, st.Misses, hits, misses)
	}
	if hits == 0 || misses == 0 {
		t.Fatal("degenerate stream: need both hits and misses to exercise both paths")
	}
}

// Reset must also clear the MRU hint, so a reset TLB cannot spuriously hit
// on a stale entry index.
func TestTLBResetClearsMRU(t *testing.T) {
	tlb := NewTLB(4, 8192, 30)
	tlb.Access(0x10000)
	tlb.Access(0x10000)
	tlb.Reset()
	if tlb.mru != 0 {
		t.Fatalf("mru = %d after Reset, want 0", tlb.mru)
	}
	if lat := tlb.Access(0x10000); lat == 0 {
		t.Fatal("hit on an invalidated entry after Reset")
	}
}

// The page hint is an optimization only: on seeded streams over a
// Table 1-sized TLB — working sets below and above its 128 entries, pages
// that share a hint slot, pages whose VPNs are equal modulo the hint size,
// and MRU repeats — every access must return the scan-only reference's
// latency, and the counters and the final entries (tags, LRU stamps, hence
// every victim chosen) must match.
func TestTLBHintMatchesScan(t *testing.T) {
	const entries, pageBytes, missPen = 128, 8192, 30
	const hintSize = 1 << tlbHintBits
	// 24 pages sharing the hint slot of 0x4000, a page of the fitting set.
	var collide []uint64
	for v := uint64(0x4000); len(collide) < 24; v++ {
		if hintSlot(v) == hintSlot(0x4000) {
			collide = append(collide, v)
		}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		tlb := NewTLB(entries, pageBytes, missPen)
		ref := newRefTLB(entries, tlb.pageBits)
		var want Stats
		seq := seed * 0x9e3779b97f4a7c15
		vpn := uint64(0)
		for i := 0; i < 100000; i++ {
			seq = seq*6364136223846793005 + 1442695040888963407
			r := seq >> 33
			switch (seq >> 60) % 5 {
			case 0: // repeat the last page (MRU)
			case 1: // a working set that fits
				vpn = 0x4000 + r%96
			case 2: // a working set of 300 pages, over capacity
				vpn = 0x8000 + r%300
			case 3: // pages equal modulo the hint size
				vpn = 0x10000 + (r%24)*hintSize
			default: // pages sharing one hint slot
				vpn = collide[r%uint64(len(collide))]
			}
			addr := vpn*pageBytes + r%pageBytes
			lat := tlb.Access(addr)
			wantLat := missPen
			want.Accesses++
			if ref.access(addr) {
				wantLat = 0
				want.Hits++
			} else {
				want.Misses++
			}
			if lat != wantLat {
				t.Fatalf("seed %d access %d (vpn %#x): latency %d, reference %d", seed, i, vpn, lat, wantLat)
			}
		}
		if got := tlb.Stats(); got != want {
			t.Fatalf("seed %d: stats %+v, reference %+v", seed, got, want)
		}
		if want.Hits == 0 || want.Misses == 0 {
			t.Fatalf("seed %d: degenerate stream %+v", seed, want)
		}
		for i, e := range tlb.entries {
			if e.valid != ref.valid[i] || e.tag != ref.tags[i] || e.lru != ref.lru[i] {
				t.Fatalf("seed %d: entry %d = %+v, reference valid=%v tag=%#x lru=%d",
					seed, i, e, ref.valid[i], ref.tags[i], ref.lru[i])
			}
		}
	}
}
