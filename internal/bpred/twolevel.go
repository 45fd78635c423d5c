package bpred

import "fmt"

// TwoLevelGlobal is a two-level predictor with a single global branch
// history register (GBHR) and a PHT of 2-bit counters. With XOR false it is
// GAs (Yeh & Patt / Pan et al.): the history is concatenated with low PC
// bits to form the index, the PC bits providing anti-aliasing. With XOR true
// it is gshare (McFarling): history and PC are XORed, permitting history as
// long as the full index. Both are instances of the shared counter kernel
// with different masks.
type TwoLevelGlobal struct {
	name  string
	pht   ctrKernel
	ghist uint64
}

func init() {
	RegisterKind(KindGAs, func(s Spec) Predictor { return NewTwoLevelGlobal(s.Name, s.Entries, s.HistBits, false) })
	RegisterKind(KindGshare, func(s Spec) Predictor { return NewTwoLevelGlobal(s.Name, s.Entries, s.HistBits, true) })
}

// NewTwoLevelGlobal builds a GAs (xor=false) or gshare (xor=true) predictor.
// entries must be a power of two; histBits must fit in the index.
func NewTwoLevelGlobal(name string, entries, histBits int, xor bool) *TwoLevelGlobal {
	if !isPow2(entries) {
		panic(fmt.Sprintf("bpred: two-level entries %d not a power of two", entries))
	}
	idxBits := log2(entries)
	if histBits < 0 || uint(histBits) > idxBits {
		panic(fmt.Sprintf("bpred: history %d bits does not fit %d index bits", histBits, idxBits))
	}
	if histBits > 63 {
		panic("bpred: history wider than 63 bits")
	}
	t := &TwoLevelGlobal{name: name}
	if xor {
		t.pht = kernelXOR(entries, histBits)
	} else {
		t.pht = kernelConcat(entries, histBits)
	}
	return t
}

// Name returns the configuration name.
func (t *TwoLevelGlobal) Name() string { return t.name }

// GHist returns the current speculative global history (for tests).
func (t *TwoLevelGlobal) GHist() uint64 { return t.ghist }

func (t *TwoLevelGlobal) index(pc uint64) int32 { return int32(t.pht.index(pc, t.ghist)) }

// Lookup predicts the branch at pc and shifts the prediction into the
// speculative global history.
//
//bp:hotpath
func (t *TwoLevelGlobal) Lookup(pc uint64) Prediction {
	i := t.pht.index(pc, t.ghist)
	bit := t.pht.bit(i)
	p := Prediction{
		PC: pc, Taken: bit != 0,
		Index0: int32(i), Index1: -1, Index2: -1, BHTIdx: -1,
		GHistPrior: t.ghist,
	}
	t.ghist = t.ghist<<1 | uint64(bit)
	return p
}

// Unwind restores the global history to its pre-lookup value.
//
//bp:hotpath
func (t *TwoLevelGlobal) Unwind(p *Prediction) { t.ghist = p.GHistPrior }

// Redirect repairs the global history with the resolved outcome.
//
//bp:hotpath
func (t *TwoLevelGlobal) Redirect(p *Prediction, taken bool) {
	t.ghist = p.GHistPrior<<1 | b2u64(taken)
}

// Update trains the counter selected at lookup time.
//
//bp:hotpath
func (t *TwoLevelGlobal) Update(p *Prediction, taken bool) { t.pht.train(p.Index0, taken) }

// Tables describes the PHT for the power model. The GBHR is a register, not
// an array, and is not charged separately.
func (t *TwoLevelGlobal) Tables() []TableSpec {
	return []TableSpec{{Name: "pht", Kind: TablePHT, Entries: t.pht.entries(), Width: 2}}
}

// TotalBits returns the predictor storage in bits.
func (t *TwoLevelGlobal) TotalBits() int { return t.pht.entries() * 2 }

// Reset restores power-on state.
func (t *TwoLevelGlobal) Reset() {
	t.pht.reset()
	t.ghist = 0
}

var _ Predictor = (*TwoLevelGlobal)(nil)
