package bpred

import "fmt"

// Bimodal is J. E. Smith's per-address predictor: a PHT of 2-bit saturating
// counters indexed directly by branch PC, so every dynamic execution of a
// static branch maps to the same entry. The paper models 128-entry through
// 16K-entry instances (Motorola ColdFire v4 through Alpha 21164 sizes).
type Bimodal struct {
	name string
	pht  ctrKernel
}

func init() {
	RegisterKind(KindBimodal, func(s Spec) Predictor { return NewBimodal(s.Name, s.Entries) })
}

// NewBimodal builds a bimodal predictor with the given PHT entry count,
// which must be a power of two.
func NewBimodal(name string, entries int) *Bimodal {
	if !isPow2(entries) {
		panic(fmt.Sprintf("bpred: bimodal entries %d not a power of two", entries))
	}
	return &Bimodal{name: name, pht: kernelBimodal(entries)}
}

// Name returns the configuration name.
func (b *Bimodal) Name() string { return b.name }

func (b *Bimodal) index(pc uint64) int32 { return int32(b.pht.index(pc, 0)) }

// Lookup predicts the branch at pc. Bimodal keeps no history, so there is
// nothing to update speculatively.
//
//bp:hotpath
func (b *Bimodal) Lookup(pc uint64) Prediction {
	i := b.pht.index(pc, 0)
	return Prediction{PC: pc, Taken: b.pht.bit(i) != 0, Index0: int32(i), Index1: -1, Index2: -1, BHTIdx: -1}
}

// Unwind is a no-op: bimodal holds no speculative state.
func (b *Bimodal) Unwind(*Prediction) {}

// Redirect is a no-op: bimodal holds no history to repair.
func (b *Bimodal) Redirect(*Prediction, bool) {}

// Update trains the counter selected at lookup time.
//
//bp:hotpath
func (b *Bimodal) Update(p *Prediction, taken bool) { b.pht.train(p.Index0, taken) }

// Tables describes the PHT for the power model.
func (b *Bimodal) Tables() []TableSpec {
	return []TableSpec{{Name: "pht", Kind: TablePHT, Entries: b.pht.entries(), Width: 2}}
}

// TotalBits returns the predictor storage in bits.
func (b *Bimodal) TotalBits() int { return b.pht.entries() * 2 }

// Reset restores power-on state.
func (b *Bimodal) Reset() { b.pht.reset() }

var _ Predictor = (*Bimodal)(nil)
