package bpred

import (
	"fmt"
	"math"
)

// TAGE is a TAgged GEometric-history-length predictor (Seznec & Michaud): a
// bimodal base table plus several tagged tables indexed by hashes of the PC
// and geometrically increasing slices of global history. Each tagged entry
// carries a partial tag, a 3-bit signed direction counter, and a 2-bit
// "useful" counter; prediction comes from the matching table with the
// longest history (the provider), falling back to the next match or the base
// table (the alternate). It is the modern-accuracy stress case for the
// paper's headline claim: far past the ~95% of 2002-era tables, with a
// genuinely different state machine (tagged match, allocation, aging) riding
// the same hot-path and speculative-repair contracts.
//
// Implementation notes for the simulator's contracts:
//
//   - Global history is kept in a single uint64 (MaxHist <= 63), so Unwind
//     and Redirect are plain register restores; per-table indices and tags
//     are recomputed from (pc, history) at each access rather than kept in
//     folded registers that would need speculative repair.
//   - Allocation uses an internal xorshift generator (seeded at reset), so
//     runs are bit-reproducible.
//   - Lookup/Update are allocation-free and branch over slices only.
type TAGE struct {
	name string
	geo  TAGEGeometry

	base ctrKernel // bimodal base predictor

	// tab holds all tagged tables back to back: table j occupies
	// tab[j<<idxBits : (j+1)<<idxBits]. Entry layout (low to high):
	// 3-bit counter, 2-bit useful, TagBits tag.
	tab     []uint32
	nTables int32
	idxBits uint
	idxMask uint32
	tagMask uint32
	// hmask[j] selects the history slice of table j: (1<<L(j))-1.
	hmask []uint64

	ghist uint64
	rng   uint64
	tick  uint32
}

// TAGEGeometry describes a TAGE configuration. All fields are plain ints so
// Spec (and cpu.Options embedding it) stays comparable.
type TAGEGeometry struct {
	// BaseEntries sizes the bimodal base table (2-bit counters).
	BaseEntries int
	// Tables is the number of tagged tables.
	Tables int
	// TableEntries is the entry count of each tagged table.
	TableEntries int
	// TagBits is the partial-tag width stored per tagged entry.
	TagBits int
	// MinHist and MaxHist bound the geometric history-length series
	// L(1)=MinHist .. L(Tables)=MaxHist. MaxHist must be <= 63 so the
	// history fits one uint64 register.
	MinHist, MaxHist int
	// UsefulResetPeriod is the number of commits between useful-counter
	// aging events (each event halves every useful counter).
	UsefulResetPeriod int
}

const (
	tageCtrBits  = 3
	tageCtrMax   = 1<<tageCtrBits - 1 // 7
	tageCtrInit  = 1 << (tageCtrBits - 1)
	tageCtrMask  = uint32(tageCtrMax)
	tageUBits    = 2
	tageUMax     = 1<<tageUBits - 1
	tageUShift   = tageCtrBits
	tageUMask    = uint32(tageUMax) << tageUShift
	tageTagShift = tageCtrBits + tageUBits
	tageRngSeed  = 0x2545F4914F6CDD1D
)

func init() {
	RegisterKind(KindTAGE, func(s Spec) Predictor { return NewTAGE(s.Name, s.TAGE) })
}

// NewTAGE builds a TAGE predictor from its geometry.
func NewTAGE(name string, geo TAGEGeometry) *TAGE {
	if !isPow2(geo.BaseEntries) || !isPow2(geo.TableEntries) {
		panic(fmt.Sprintf("bpred: TAGE %s table sizes must be powers of two", name))
	}
	if geo.Tables < 2 {
		panic(fmt.Sprintf("bpred: TAGE %s needs at least two tagged tables", name))
	}
	if geo.TagBits < 4 || geo.TagBits > 15 {
		panic(fmt.Sprintf("bpred: TAGE %s tag width %d out of range", name, geo.TagBits))
	}
	if geo.MinHist < 1 || geo.MaxHist <= geo.MinHist || geo.MaxHist > 63 {
		panic(fmt.Sprintf("bpred: TAGE %s history series %d..%d out of range", name, geo.MinHist, geo.MaxHist))
	}
	if geo.UsefulResetPeriod < 1 {
		panic(fmt.Sprintf("bpred: TAGE %s needs a positive useful-reset period", name))
	}
	t := &TAGE{
		name:    name,
		geo:     geo,
		base:    kernelBimodal(geo.BaseEntries),
		tab:     make([]uint32, geo.Tables*geo.TableEntries),
		nTables: int32(geo.Tables),
		idxBits: log2(geo.TableEntries),
		idxMask: uint32(geo.TableEntries - 1),
		tagMask: uint32(1)<<uint(geo.TagBits) - 1,
		hmask:   make([]uint64, geo.Tables),
		rng:     tageRngSeed,
	}
	// Geometric history lengths: L(j) = MinHist * (MaxHist/MinHist)^(j/(n-1)),
	// rounded, strictly increasing.
	ratio := float64(geo.MaxHist) / float64(geo.MinHist)
	prev := 0
	for j := 0; j < geo.Tables; j++ {
		l := int(math.Round(float64(geo.MinHist) * math.Pow(ratio, float64(j)/float64(geo.Tables-1)))) //bplint:allow divzero -- the constructor panics unless geo.Tables >= 2
		if l <= prev {
			l = prev + 1
		}
		prev = l
		t.hmask[j] = uint64(1)<<uint(l) - 1
	}
	return t
}

// Name returns the configuration name.
func (t *TAGE) Name() string { return t.name }

// Geometry returns the TAGE geometry.
func (t *TAGE) Geometry() TAGEGeometry { return t.geo }

// GHist returns the speculative global history (for tests).
func (t *TAGE) GHist() uint64 { return t.ghist }

// HistoryLengths returns the realized geometric history-length series (for
// tests and reporting).
func (t *TAGE) HistoryLengths() []int {
	out := make([]int, len(t.hmask))
	for j, m := range t.hmask {
		l := 0
		for m != 0 {
			m >>= 1
			l++
		}
		out[j] = l
	}
	return out
}

// mix64 is a 64-bit finalizer (Stafford variant 13 of splitmix64); index and
// tag come from independent bit ranges of one mixed word.
//
//bp:hotpath
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// slot hashes (pc, history) for tagged table j into a flat element index
// into tab and the partial tag stored there.
//
//bp:hotpath
func (t *TAGE) slot(pc, hist uint64, j int32) (int32, uint32) {
	h := hist & t.hmask[j]
	m := mix64((pc >> 2) + h*0x9e3779b97f4a7c15 + uint64(j)*0xd6e8feb86659fd93)
	idx := uint32(m) & t.idxMask
	tag := uint32(m>>32) & t.tagMask
	return j<<t.idxBits | int32(idx), tag
}

//bp:hotpath
func tageTaken(e uint32) bool { return e&tageCtrMask >= tageCtrInit }

//bp:hotpath
func tageWeak(e uint32) bool {
	c := e & tageCtrMask
	return c == tageCtrInit || c == tageCtrInit-1
}

// Lookup predicts the branch at pc from the longest-history tag match,
// choosing the alternate prediction when the provider entry is weak and not
// yet proven useful, then shifts the prediction into the speculative global
// history.
//
//bp:hotpath
func (t *TAGE) Lookup(pc uint64) Prediction {
	baseIdx := t.base.index(pc, 0)
	baseTaken := t.base.bit(baseIdx) != 0

	provTable, altTable := int32(-1), int32(-1)
	provSlot, altSlot := int32(-1), int32(-1)
	var provEntry uint32
	provTaken, altTaken := baseTaken, baseTaken
	for j := t.nTables - 1; j >= 0; j-- {
		s, tag := t.slot(pc, t.ghist, j)
		e := t.tab[s]
		if e>>tageTagShift == tag {
			if provTable < 0 {
				provTable, provSlot, provEntry = j, s, e
				provTaken = tageTaken(e)
			} else {
				altTable, altSlot = j, s
				altTaken = tageTaken(e)
				break
			}
		}
	}

	// Use the alternate prediction when the provider entry looks newly
	// allocated: weak counter, never proven useful.
	useProv := provTable >= 0 && !(tageWeak(provEntry) && provEntry&tageUMask == 0)
	taken := altTaken
	if useProv {
		taken = provTaken
	}

	p := Prediction{
		PC: pc, Taken: taken,
		Index0: provSlot, Index1: provTable, Index2: altSlot, BHTIdx: altTable,
		GHistPrior:  t.ghist,
		GlobalTaken: provTaken, LocalTaken: altTaken, UsedGlobal: useProv,
	}
	t.ghist = t.ghist<<1 | b2u64(taken)
	return p
}

// Unwind restores the speculative global history. Recomputed hashes make
// this a plain register restore: no folded index registers to repair.
//
//bp:hotpath
func (t *TAGE) Unwind(p *Prediction) { t.ghist = p.GHistPrior }

// Redirect repairs the global history with the resolved outcome.
//
//bp:hotpath
func (t *TAGE) Redirect(p *Prediction, taken bool) {
	t.ghist = p.GHistPrior<<1 | b2u64(taken)
}

// trainCtr saturating-steps a tagged entry's 3-bit counter.
//
//bp:hotpath
func tageTrainCtr(e uint32, taken bool) uint32 {
	c := e & tageCtrMask
	if taken {
		if c < tageCtrMax {
			c++
		}
	} else if c > 0 {
		c--
	}
	return e&^tageCtrMask | c
}

// Update trains the provider (and base fallback), adjusts the provider's
// useful counter, allocates a longer-history entry on a misprediction, and
// ages the useful counters periodically.
//
//bp:hotpath
func (t *TAGE) Update(p *Prediction, taken bool) {
	if p.Index1 >= 0 {
		e := t.tab[p.Index0]
		// The provider was still unproven (the alternate supplied the
		// prediction): keep training the base table too, so the fallback
		// stays warm if this entry is reclaimed.
		if !p.UsedGlobal {
			t.base.train(int32(t.base.index(p.PC, 0)), taken)
		}
		e = tageTrainCtr(e, taken)
		// The useful counter tracks the provider beating the alternate.
		if p.GlobalTaken != p.LocalTaken {
			u := e & tageUMask >> tageUShift
			if p.GlobalTaken == taken {
				if u < tageUMax {
					u++
				}
			} else if u > 0 {
				u--
			}
			e = e&^tageUMask | u<<tageUShift
		}
		t.tab[p.Index0] = e
	} else {
		t.base.train(int32(t.base.index(p.PC, 0)), taken)
	}

	// On a misprediction, allocate an entry with a longer history than the
	// provider: pick (pseudo-randomly, deterministically) among the first
	// two candidate tables whose slot is not useful; if none, decay their
	// useful counters so space frees up.
	if p.Taken != taken && p.Index1 < t.nTables-1 {
		t.rng ^= t.rng << 13
		t.rng ^= t.rng >> 7
		t.rng ^= t.rng << 17
		cand1, cand2 := int32(-1), int32(-1)
		var cs1, cs2 int32
		var ct1, ct2 uint32
		for j := p.Index1 + 1; j < t.nTables; j++ {
			s, tag := t.slot(p.PC, p.GHistPrior, j)
			if t.tab[s]&tageUMask == 0 {
				if cand1 < 0 {
					cand1, cs1, ct1 = j, s, tag
				} else {
					cand2, cs2, ct2 = j, s, tag
					break
				}
			}
		}
		if cand2 >= 0 && t.rng&3 == 3 {
			// A quarter of the time, skip to the second candidate so long
			// tables also fill (the classic TAGE allocation bias).
			cand1, cs1, ct1 = cand2, cs2, ct2
		}
		if cand1 >= 0 {
			ctr := uint32(tageCtrInit - 1)
			if taken {
				ctr = tageCtrInit
			}
			t.tab[cs1] = ct1<<tageTagShift | ctr
		} else {
			for j := p.Index1 + 1; j < t.nTables; j++ {
				s, _ := t.slot(p.PC, p.GHistPrior, j)
				e := t.tab[s]
				u := e & tageUMask >> tageUShift
				if u > 0 {
					t.tab[s] = e&^tageUMask | (u-1)<<tageUShift
				}
			}
		}
	}

	// Periodic aging: halve every useful counter so stale entries become
	// reclaimable.
	t.tick++
	if t.tick >= uint32(t.geo.UsefulResetPeriod) {
		t.tick = 0
		for i := range t.tab {
			e := t.tab[i]
			t.tab[i] = e&^tageUMask | (e&tageUMask>>tageUShift)>>1<<tageUShift
		}
	}
}

// Tables describes the base and tagged tables for the power model.
func (t *TAGE) Tables() []TableSpec {
	ts := make([]TableSpec, 0, t.geo.Tables+1)
	ts = append(ts, TableSpec{Name: "base", Kind: TablePHT, Entries: t.geo.BaseEntries, Width: 2})
	for j := 0; j < t.geo.Tables; j++ {
		ts = append(ts, TableSpec{
			Name: fmt.Sprintf("tage%d", j+1), Kind: TableTagged,
			Entries: t.geo.TableEntries, Width: tageCtrBits + tageUBits, Tag: t.geo.TagBits,
		})
	}
	return ts
}

// TotalBits returns the predictor storage in bits.
func (t *TAGE) TotalBits() int {
	return t.geo.BaseEntries*2 + t.geo.Tables*t.geo.TableEntries*(tageCtrBits+tageUBits+t.geo.TagBits)
}

// Reset restores power-on state, reseeding the allocation generator so runs
// are bit-reproducible.
func (t *TAGE) Reset() {
	t.base.reset()
	for i := range t.tab {
		t.tab[i] = 0
	}
	t.ghist = 0
	t.rng = tageRngSeed
	t.tick = 0
}

var _ Predictor = (*TAGE)(nil)
