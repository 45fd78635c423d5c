package bpred

import "fmt"

// Additional predictor organizations beyond the paper's fourteen
// configurations, from the same cited lineage (Smith; Yeh & Patt; Pan, So &
// Rahmeh; McFarling): static predictors, the degenerate two-level global
// (GAg) and per-address (PAg) schemes, and gselect. They are useful as
// baselines and for taxonomy sweeps, and they exercise the same Predictor
// interface, so every harness and tool accepts them.

func init() {
	RegisterKind(KindStaticTaken, func(Spec) Predictor { return NewStaticTaken() })
	RegisterKind(KindStaticNotTaken, func(Spec) Predictor { return NewStaticNotTaken() })
	RegisterKind(KindGAg, func(s Spec) Predictor { return NewGAg(s.Name, s.HistBits) })
	RegisterKind(KindGselect, func(s Spec) Predictor { return NewGselect(s.Name, s.Entries, s.HistBits) })
	RegisterKind(KindPAg, func(s Spec) Predictor { return NewPAg(s.Name, s.BHTEntries, s.HistBits) })
}

// Static is a fixed-direction predictor (always-taken or always-not-taken),
// the baseline dynamic predictors are measured against.
type Static struct {
	name  string
	taken bool
}

// NewStaticTaken predicts every branch taken.
func NewStaticTaken() *Static { return &Static{name: "Static_taken", taken: true} }

// NewStaticNotTaken predicts every branch not taken.
func NewStaticNotTaken() *Static { return &Static{name: "Static_nottaken", taken: false} }

// Name returns the configuration name.
func (s *Static) Name() string { return s.name }

// Lookup returns the fixed direction.
func (s *Static) Lookup(pc uint64) Prediction {
	return Prediction{PC: pc, Taken: s.taken, Index0: -1, Index1: -1, Index2: -1, BHTIdx: -1}
}

// Unwind is a no-op.
func (s *Static) Unwind(*Prediction) {}

// Redirect is a no-op.
func (s *Static) Redirect(*Prediction, bool) {}

// Update is a no-op.
func (s *Static) Update(*Prediction, bool) {}

// Tables reports no storage.
func (s *Static) Tables() []TableSpec { return nil }

// TotalBits is zero: static prediction needs no state.
func (s *Static) TotalBits() int { return 0 }

// Reset is a no-op.
func (s *Static) Reset() {}

// NewGAg builds the degenerate global two-level predictor: the PHT is
// indexed purely by global history (no address bits), so every branch with
// the same recent history shares an entry. entries must equal 1<<histBits.
func NewGAg(name string, histBits int) *TwoLevelGlobal {
	return NewTwoLevelGlobal(name, 1<<uint(histBits), histBits, false)
}

// Gselect is McFarling's concatenation predictor: the PHT index concatenates
// the low half from history and the rest from the branch address, a middle
// point between GAs (history in the high bits) and gshare (XOR). McFarling
// found gselect slightly worse than gshare at equal size; it is provided for
// that comparison.
type Gselect struct {
	name  string
	pht   ctrKernel
	ghist uint64
}

// NewGselect builds a gselect predictor with the given PHT entry count and
// history length (histBits must fit the index).
func NewGselect(name string, entries, histBits int) *Gselect {
	if !isPow2(entries) {
		panic(fmt.Sprintf("bpred: gselect entries %d not a power of two", entries))
	}
	if uint(histBits) > log2(entries) {
		panic(fmt.Sprintf("bpred: gselect history %d exceeds index %d bits", histBits, log2(entries)))
	}
	// History in the LOW bits, address in the high bits (the mirror of GAs).
	return &Gselect{name: name, pht: kernelGselect(entries, histBits)}
}

// Name returns the configuration name.
func (g *Gselect) Name() string { return g.name }

func (g *Gselect) index(pc uint64) int32 { return int32(g.pht.index(pc, g.ghist)) }

// Lookup predicts and speculatively updates history.
//
//bp:hotpath
func (g *Gselect) Lookup(pc uint64) Prediction {
	i := g.pht.index(pc, g.ghist)
	bit := g.pht.bit(i)
	p := Prediction{PC: pc, Taken: bit != 0, Index0: int32(i), Index1: -1, Index2: -1, BHTIdx: -1, GHistPrior: g.ghist}
	g.ghist = g.ghist<<1 | uint64(bit)
	return p
}

// Unwind restores the speculative history.
func (g *Gselect) Unwind(p *Prediction) { g.ghist = p.GHistPrior }

// Redirect repairs history with the resolved outcome.
func (g *Gselect) Redirect(p *Prediction, taken bool) { g.ghist = p.GHistPrior<<1 | b2u64(taken) }

// Update trains the counter chosen at lookup.
func (g *Gselect) Update(p *Prediction, taken bool) { g.pht.train(p.Index0, taken) }

// Tables describes the PHT.
func (g *Gselect) Tables() []TableSpec {
	return []TableSpec{{Name: "pht", Kind: TablePHT, Entries: g.pht.entries(), Width: 2}}
}

// TotalBits returns the storage in bits.
func (g *Gselect) TotalBits() int { return g.pht.entries() * 2 }

// Reset restores power-on state.
func (g *Gselect) Reset() {
	g.pht.reset()
	g.ghist = 0
}

// PAg is the degenerate per-address two-level predictor: per-branch history
// registers all index one shared PHT purely by history pattern (no address
// bits in the second level).
type PAg struct {
	name     string
	bht      []uint32
	bhtMask  uint64
	bhtWidth uint
	pht      ctrKernel
}

// NewPAg builds a PAg with bhtEntries history registers of histBits bits and
// a 1<<histBits-entry PHT.
func NewPAg(name string, bhtEntries, histBits int) *PAg {
	if !isPow2(bhtEntries) {
		panic(fmt.Sprintf("bpred: PAg BHT entries %d not a power of two", bhtEntries))
	}
	if histBits < 1 || histBits > 24 {
		panic(fmt.Sprintf("bpred: PAg history %d out of range", histBits))
	}
	return &PAg{
		name:     name,
		bht:      make([]uint32, bhtEntries),
		bhtMask:  uint64(bhtEntries - 1),
		bhtWidth: uint(histBits),
		pht:      kernelConcat(1<<uint(histBits), histBits),
	}
}

// Name returns the configuration name.
func (p *PAg) Name() string { return p.name }

// Lookup predicts and speculatively updates the branch's local history.
//
//bp:hotpath
func (p *PAg) Lookup(pc uint64) Prediction {
	bi := int32((pc >> 2) & p.bhtMask)
	hist := p.bht[bi]
	pi := p.pht.index(pc, uint64(hist))
	bit := p.pht.bit(pi)
	pr := Prediction{PC: pc, Taken: bit != 0, Index0: int32(pi), Index1: -1, Index2: -1, BHTIdx: bi, LocalPrior: hist}
	p.bht[bi] = (hist<<1 | uint32(bit)) & (1<<p.bhtWidth - 1)
	return pr
}

// Unwind restores the branch's local history.
func (p *PAg) Unwind(pr *Prediction) { p.bht[pr.BHTIdx] = pr.LocalPrior }

// Redirect repairs the branch's local history.
func (p *PAg) Redirect(pr *Prediction, taken bool) {
	p.bht[pr.BHTIdx] = (pr.LocalPrior<<1 | b2u32(taken)) & (1<<p.bhtWidth - 1)
}

// Update trains the counter chosen at lookup.
func (p *PAg) Update(pr *Prediction, taken bool) { p.pht.train(pr.Index0, taken) }

// Tables describes the BHT and PHT.
func (p *PAg) Tables() []TableSpec {
	return []TableSpec{
		{Name: "bht", Kind: TableBHT, Entries: len(p.bht), Width: int(p.bhtWidth)},
		{Name: "pht", Kind: TablePHT, Entries: p.pht.entries(), Width: 2},
	}
}

// TotalBits returns the storage in bits.
func (p *PAg) TotalBits() int { return len(p.bht)*int(p.bhtWidth) + p.pht.entries()*2 }

// Reset restores power-on state.
func (p *PAg) Reset() {
	for i := range p.bht {
		p.bht[i] = 0
	}
	p.pht.reset()
}

// Compile-time interface checks for the extension predictors.
var (
	_ Predictor = (*Static)(nil)
	_ Predictor = (*Gselect)(nil)
	_ Predictor = (*PAg)(nil)
)
