package bpred

import "fmt"

// Alloyed is the MAs ("merged/alloyed history") predictor of Skadron,
// Martonosi & Clark — the paper's reference [22], from which its PAs and
// hybrid configurations are drawn. One PHT index concatenates global
// history, per-branch local history, and branch address bits, attacking
// wrong-history mispredictions without a hybrid's selector.
type Alloyed struct {
	name string

	bht     []uint32
	bhtMask uint64
	lBits   uint
	gBits   uint
	pht     ctrKernel
	ghist   uint64
}

func init() {
	RegisterKind(KindAlloyed, func(s Spec) Predictor { return NewAlloyed(s.Name, s.BHTEntries, s.BHTWidth, s.HistBits, s.Entries) })
}

// NewAlloyed builds an alloyed predictor: phtEntries counters indexed by
// gBits of global history, lBits of local history (from a bhtEntries-entry
// BHT), and address bits filling the remainder.
func NewAlloyed(name string, bhtEntries, lBits, gBits, phtEntries int) *Alloyed {
	if !isPow2(bhtEntries) || !isPow2(phtEntries) {
		panic(fmt.Sprintf("bpred: alloyed geometry %dx%d not power of two", bhtEntries, phtEntries))
	}
	idxBits := log2(phtEntries)
	if uint(lBits+gBits) > idxBits {
		panic(fmt.Sprintf("bpred: alloyed histories (%d+%d bits) exceed index (%d bits)", lBits, gBits, idxBits))
	}
	if lBits < 1 || gBits < 1 {
		panic("bpred: alloyed needs both history components")
	}
	return &Alloyed{
		name:    name,
		bht:     make([]uint32, bhtEntries),
		bhtMask: uint64(bhtEntries - 1),
		lBits:   uint(lBits),
		gBits:   uint(gBits),
		// The kernel sees one merged history field: global bits above local
		// bits, address bits filling the remainder.
		pht: kernelConcat(phtEntries, gBits+lBits),
	}
}

// Name returns the configuration name.
func (a *Alloyed) Name() string { return a.name }

// GHist returns the speculative global history (for tests).
func (a *Alloyed) GHist() uint64 { return a.ghist }

//bp:hotpath
func (a *Alloyed) bhtIndex(pc uint64) int32 { return int32((pc >> 2) & a.bhtMask) }

// merged packs the global and local history components into the kernel's
// single history field: global bits above local bits.
//
//bp:hotpath
func (a *Alloyed) merged(local uint32) uint64 {
	return (a.ghist&(1<<a.gBits-1))<<a.lBits | uint64(local)&(1<<a.lBits-1)
}

func (a *Alloyed) index(pc uint64, local uint32) int32 {
	return int32(a.pht.index(pc, a.merged(local)))
}

// Lookup predicts the branch at pc and speculatively updates both history
// components with the prediction.
//
//bp:hotpath
func (a *Alloyed) Lookup(pc uint64) Prediction {
	bi := a.bhtIndex(pc)
	local := a.bht[bi]
	i := a.pht.index(pc, a.merged(local))
	bit := a.pht.bit(i)
	p := Prediction{
		PC: pc, Taken: bit != 0,
		Index0: int32(i), Index1: -1, Index2: -1, BHTIdx: bi,
		GHistPrior: a.ghist, LocalPrior: local,
	}
	a.ghist = a.ghist<<1 | uint64(bit)
	a.bht[bi] = (local<<1 | uint32(bit)) & (1<<a.lBits - 1)
	return p
}

// Unwind restores both speculative histories.
func (a *Alloyed) Unwind(p *Prediction) {
	a.ghist = p.GHistPrior
	a.bht[p.BHTIdx] = p.LocalPrior
}

// Redirect repairs both histories with the resolved outcome.
func (a *Alloyed) Redirect(p *Prediction, taken bool) {
	a.ghist = p.GHistPrior<<1 | b2u64(taken)
	a.bht[p.BHTIdx] = (p.LocalPrior<<1 | b2u32(taken)) & (1<<a.lBits - 1)
}

// Update trains the counter selected at lookup time.
func (a *Alloyed) Update(p *Prediction, taken bool) { a.pht.train(p.Index0, taken) }

// Tables describes the BHT and PHT for the power model.
func (a *Alloyed) Tables() []TableSpec {
	return []TableSpec{
		{Name: "bht", Kind: TableBHT, Entries: len(a.bht), Width: int(a.lBits)},
		{Name: "pht", Kind: TablePHT, Entries: a.pht.entries(), Width: 2},
	}
}

// TotalBits returns the predictor storage in bits.
func (a *Alloyed) TotalBits() int { return len(a.bht)*int(a.lBits) + a.pht.entries()*2 }

// Reset restores power-on state.
func (a *Alloyed) Reset() {
	for i := range a.bht {
		a.bht[i] = 0
	}
	a.pht.reset()
	a.ghist = 0
}

var _ Predictor = (*Alloyed)(nil)
