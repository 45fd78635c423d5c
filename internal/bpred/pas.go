package bpred

import "fmt"

// PAs is a two-level local-history predictor (Yeh & Patt): a branch history
// table (BHT) of per-branch history registers indexed by PC, whose selected
// history is concatenated with low PC bits to index a shared PHT of 2-bit
// counters. Local history exposes per-branch patterns (loop trip counts,
// alternations) that global history may dilute, but cannot see cross-branch
// correlation.
//
// The BHT is updated speculatively at lookup with the predicted outcome and
// repaired on squash, matching the paper's speculative-update simulator
// extension.
type PAs struct {
	name     string
	bht      []uint32
	bhtMask  uint64
	bhtWidth uint
	pht      ctrKernel
}

func init() {
	RegisterKind(KindPAs, func(s Spec) Predictor { return NewPAs(s.Name, s.BHTEntries, s.BHTWidth, s.Entries) })
}

// NewPAs builds a PAs predictor with bhtEntries history registers of
// bhtWidth bits and a phtEntries-counter PHT. Entry counts must be powers of
// two and bhtWidth must not exceed the PHT index width.
func NewPAs(name string, bhtEntries, bhtWidth, phtEntries int) *PAs {
	if !isPow2(bhtEntries) || !isPow2(phtEntries) {
		panic(fmt.Sprintf("bpred: PAs geometry %dx%d not power of two", bhtEntries, phtEntries))
	}
	if bhtWidth < 1 || bhtWidth > 32 {
		panic(fmt.Sprintf("bpred: PAs history width %d out of range", bhtWidth))
	}
	if uint(bhtWidth) > log2(phtEntries) {
		panic(fmt.Sprintf("bpred: PAs history %d bits exceeds PHT index %d bits", bhtWidth, log2(phtEntries)))
	}
	return &PAs{
		name:     name,
		bht:      make([]uint32, bhtEntries),
		bhtMask:  uint64(bhtEntries - 1),
		bhtWidth: uint(bhtWidth),
		pht:      kernelConcat(phtEntries, bhtWidth),
	}
}

// Name returns the configuration name.
func (p *PAs) Name() string { return p.name }

//bp:hotpath
func (p *PAs) bhtIndex(pc uint64) int32 { return int32((pc >> 2) & p.bhtMask) }

// Lookup predicts the branch at pc and shifts the prediction into its local
// history register.
//
//bp:hotpath
func (p *PAs) Lookup(pc uint64) Prediction {
	bi := p.bhtIndex(pc)
	hist := p.bht[bi]
	pi := p.pht.index(pc, uint64(hist))
	bit := p.pht.bit(pi)
	pr := Prediction{
		PC: pc, Taken: bit != 0,
		Index0: int32(pi), Index1: -1, Index2: -1, BHTIdx: bi,
		LocalPrior: hist,
	}
	p.bht[bi] = (hist<<1 | uint32(bit)) & ((1 << p.bhtWidth) - 1)
	return pr
}

// Unwind restores the branch's local history register.
//
//bp:hotpath
func (p *PAs) Unwind(pr *Prediction) { p.bht[pr.BHTIdx] = pr.LocalPrior }

// Redirect repairs the branch's local history with the resolved outcome.
//
//bp:hotpath
func (p *PAs) Redirect(pr *Prediction, taken bool) {
	p.bht[pr.BHTIdx] = (pr.LocalPrior<<1 | b2u32(taken)) & ((1 << p.bhtWidth) - 1)
}

// Update trains the counter selected at lookup time.
//
//bp:hotpath
func (p *PAs) Update(pr *Prediction, taken bool) { p.pht.train(pr.Index0, taken) }

// Tables describes the BHT and PHT for the power model.
func (p *PAs) Tables() []TableSpec {
	return []TableSpec{
		{Name: "bht", Kind: TableBHT, Entries: len(p.bht), Width: int(p.bhtWidth)},
		{Name: "pht", Kind: TablePHT, Entries: p.pht.entries(), Width: 2},
	}
}

// TotalBits returns the predictor storage in bits.
func (p *PAs) TotalBits() int { return len(p.bht)*int(p.bhtWidth) + p.pht.entries()*2 }

// Reset restores power-on state.
func (p *PAs) Reset() {
	for i := range p.bht {
		p.bht[i] = 0
	}
	p.pht.reset()
}

var _ Predictor = (*PAs)(nil)
