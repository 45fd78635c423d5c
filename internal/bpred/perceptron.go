package bpred

import "fmt"

// Perceptron is the perceptron predictor of Jiménez & Lin ("Dynamic Branch
// Prediction with Perceptrons", HPCA 2001): a table of per-branch weight
// rows, each a bias plus one signed 8-bit weight per bit of global history.
// Lookup computes the dot product of the weights with the history (as ±1
// inputs); the sign is the prediction. Training adjusts the row when the
// prediction was wrong or the output magnitude was at or below the threshold
// theta = floor(1.93*h + 14), the value derived in the paper. Its linear
// separability limit is the classic contrast case to TAGE for stressing the
// source paper's accuracy-vs-chip-energy claim.
type Perceptron struct {
	name string
	geo  PerceptronGeometry

	// w holds the weight rows back to back: row r occupies
	// w[r*stride : (r+1)*stride], bias first.
	w       []int8
	rowMask uint64
	hbits   int32
	stride  int32
	theta   int32

	ghist uint64
}

// PerceptronGeometry describes a perceptron configuration. All fields are
// plain ints so Spec (and cpu.Options embedding it) stays comparable.
type PerceptronGeometry struct {
	// Rows is the weight-table row count (indexed by PC).
	Rows int
	// HistBits is the global history length (weights per row minus the
	// bias). Must be <= 62 so the history fits one uint64 register.
	HistBits int
}

// perceptronWeightBits is the stored width of one signed weight.
const perceptronWeightBits = 8

func init() {
	RegisterKind(KindPerceptron, func(s Spec) Predictor { return NewPerceptron(s.Name, s.Perceptron) })
}

// NewPerceptron builds a perceptron predictor from its geometry.
func NewPerceptron(name string, geo PerceptronGeometry) *Perceptron {
	if !isPow2(geo.Rows) {
		panic(fmt.Sprintf("bpred: perceptron %s rows %d not a power of two", name, geo.Rows))
	}
	if geo.HistBits < 1 || geo.HistBits > 62 {
		panic(fmt.Sprintf("bpred: perceptron %s history %d out of range", name, geo.HistBits))
	}
	return &Perceptron{
		name:    name,
		geo:     geo,
		w:       make([]int8, geo.Rows*(geo.HistBits+1)),
		rowMask: uint64(geo.Rows - 1),
		hbits:   int32(geo.HistBits),
		stride:  int32(geo.HistBits + 1),
		theta:   int32(1.93*float64(geo.HistBits)) + 14,
	}
}

// Name returns the configuration name.
func (p *Perceptron) Name() string { return p.name }

// Geometry returns the perceptron geometry.
func (p *Perceptron) Geometry() PerceptronGeometry { return p.geo }

// Theta returns the training threshold (for tests).
func (p *Perceptron) Theta() int32 { return p.theta }

// GHist returns the speculative global history (for tests).
func (p *Perceptron) GHist() uint64 { return p.ghist }

// Lookup computes the perceptron output for the branch at pc and shifts the
// prediction into the speculative global history. The dot product treats
// history bit j as +1 (taken) or -1 (not taken), branchlessly.
//
//bp:hotpath
func (p *Perceptron) Lookup(pc uint64) Prediction {
	row := int32((pc >> 2) & p.rowMask)
	off := int(row) * int(p.stride)
	w := p.w[off : off+int(p.stride)]
	y := int32(w[0])
	g := p.ghist
	for j := int32(0); j < p.hbits; j++ {
		y += int32(w[j+1]) * (int32(g>>uint(j)&1)<<1 - 1)
	}
	taken := y >= 0
	pr := Prediction{
		PC: pc, Taken: taken,
		Index0: row, Index1: -1, Index2: -1, BHTIdx: -1,
		GHistPrior: p.ghist,
		// The output magnitude doubles as training-confidence state; carry
		// it to Update through the prior-value slot (bit-cast, sign intact).
		LocalPrior: uint32(y),
	}
	p.ghist = p.ghist<<1 | b2u64(taken)
	return pr
}

// Unwind restores the speculative global history.
//
//bp:hotpath
func (p *Perceptron) Unwind(pr *Prediction) { p.ghist = pr.GHistPrior }

// Redirect repairs the global history with the resolved outcome.
//
//bp:hotpath
func (p *Perceptron) Redirect(pr *Prediction, taken bool) {
	p.ghist = pr.GHistPrior<<1 | b2u64(taken)
}

// Update applies the perceptron training rule at commit: when the
// prediction was wrong or |y| <= theta, step each weight toward agreement
// between its history bit and the outcome, saturating at int8 range.
//
//bp:hotpath
func (p *Perceptron) Update(pr *Prediction, taken bool) {
	y := int32(pr.LocalPrior)
	if pr.Taken == taken && (y > p.theta || y < -p.theta) {
		return
	}
	off := int(pr.Index0) * int(p.stride)
	w := p.w[off : off+int(p.stride)]
	w[0] = satStep(w[0], taken)
	g := pr.GHistPrior
	for j := int32(0); j < p.hbits; j++ {
		w[j+1] = satStep(w[j+1], g>>uint(j)&1 == b2u64(taken))
	}
}

// satStep moves a weight one step up (agree) or down (disagree), saturating
// at the int8 limits.
//
//bp:hotpath
func satStep(w int8, up bool) int8 {
	if up {
		if w < 127 {
			return w + 1
		}
	} else if w > -128 {
		return w - 1
	}
	return w
}

// Tables describes the weight SRAM for the power model: one row of packed
// signed weights per entry.
func (p *Perceptron) Tables() []TableSpec {
	return []TableSpec{{
		Name: "weights", Kind: TableWeight,
		Entries: p.geo.Rows, Width: (p.geo.HistBits + 1) * perceptronWeightBits,
	}}
}

// TotalBits returns the predictor storage in bits.
func (p *Perceptron) TotalBits() int {
	return p.geo.Rows * (p.geo.HistBits + 1) * perceptronWeightBits
}

// Reset restores power-on state.
func (p *Perceptron) Reset() {
	for i := range p.w {
		p.w[i] = 0
	}
	p.ghist = 0
}

var _ Predictor = (*Perceptron)(nil)
