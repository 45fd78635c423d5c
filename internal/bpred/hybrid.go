package bpred

import "fmt"

// HybridComponentKind selects the second component of a hybrid predictor.
type HybridComponentKind uint8

const (
	// HybridLocal pairs the global component with a PAs-style local-history
	// predictor (hybrid_1 through hybrid_4, the Alpha 21264 arrangement).
	HybridLocal HybridComponentKind = iota
	// HybridBimodal pairs it with a bimodal predictor (the deliberately poor
	// hybrid_0 used in the pipeline-gating study).
	HybridBimodal
)

// HybridGeometry fully describes a hybrid predictor's tables.
type HybridGeometry struct {
	// SelEntries and SelHistBits size the selector PHT and the slice of
	// global history used to index it (low PC bits fill the remainder).
	SelEntries, SelHistBits int
	// GlobalEntries and GlobalHistBits size the global component PHT and its
	// history slice.
	GlobalEntries, GlobalHistBits int
	// Second selects the other component.
	Second HybridComponentKind
	// LocalBHTEntries, LocalBHTWidth, LocalPHTEntries size the local
	// component when Second is HybridLocal.
	LocalBHTEntries, LocalBHTWidth, LocalPHTEntries int
	// BimodalEntries sizes the bimodal component when Second is
	// HybridBimodal.
	BimodalEntries int
}

// Hybrid is a McFarling combining predictor: two component predictors run in
// parallel and a selector PHT of 2-bit counters learns, per branch, which
// component to trust. One shared speculative global history register feeds
// the selector and the global component. All four counter tables are
// instances of the shared counter kernel; the selected direction and the
// "both strong" estimate are computed bitwise, with no data-dependent branch.
type Hybrid struct {
	name string
	geo  HybridGeometry

	ghist uint64

	sel  ctrKernel
	gpht ctrKernel

	// Local component (HybridLocal).
	lbht     []uint32
	lbhtMask uint64
	lWidth   uint
	lpht     ctrKernel

	// Bimodal component (HybridBimodal).
	bim ctrKernel
}

func init() {
	RegisterKind(KindHybrid, func(s Spec) Predictor { return NewHybrid(s.Name, s.Hybrid) })
}

// NewHybrid builds a hybrid predictor from its geometry.
func NewHybrid(name string, geo HybridGeometry) *Hybrid {
	if !isPow2(geo.SelEntries) || !isPow2(geo.GlobalEntries) {
		panic(fmt.Sprintf("bpred: hybrid %s selector/global entries must be powers of two", name))
	}
	if uint(geo.SelHistBits) > log2(geo.SelEntries) {
		panic(fmt.Sprintf("bpred: hybrid %s selector history %d exceeds index %d bits", name, geo.SelHistBits, log2(geo.SelEntries)))
	}
	if uint(geo.GlobalHistBits) > log2(geo.GlobalEntries) {
		panic(fmt.Sprintf("bpred: hybrid %s global history %d exceeds index %d bits", name, geo.GlobalHistBits, log2(geo.GlobalEntries)))
	}
	h := &Hybrid{
		name: name,
		geo:  geo,
		sel:  kernelConcat(geo.SelEntries, geo.SelHistBits),
		gpht: kernelConcat(geo.GlobalEntries, geo.GlobalHistBits),
	}
	switch geo.Second {
	case HybridLocal:
		if !isPow2(geo.LocalBHTEntries) || !isPow2(geo.LocalPHTEntries) {
			panic(fmt.Sprintf("bpred: hybrid %s local geometry must be powers of two", name))
		}
		if uint(geo.LocalBHTWidth) > log2(geo.LocalPHTEntries) {
			panic(fmt.Sprintf("bpred: hybrid %s local history %d exceeds local PHT index", name, geo.LocalBHTWidth))
		}
		h.lbht = make([]uint32, geo.LocalBHTEntries)
		h.lbhtMask = uint64(geo.LocalBHTEntries - 1)
		h.lWidth = uint(geo.LocalBHTWidth)
		h.lpht = kernelConcat(geo.LocalPHTEntries, geo.LocalBHTWidth)
	case HybridBimodal:
		if !isPow2(geo.BimodalEntries) {
			panic(fmt.Sprintf("bpred: hybrid %s bimodal entries must be a power of two", name))
		}
		h.bim = kernelBimodal(geo.BimodalEntries)
	default:
		panic("bpred: unknown hybrid component kind")
	}
	return h
}

// Name returns the configuration name.
func (h *Hybrid) Name() string { return h.name }

// Geometry returns the hybrid's table geometry.
func (h *Hybrid) Geometry() HybridGeometry { return h.geo }

// GHist returns the current speculative global history (for tests).
func (h *Hybrid) GHist() uint64 { return h.ghist }

// Lookup runs the selector and both components, chooses a direction, and
// speculatively updates the shared global history and the local BHT.
//
//bp:hotpath
func (h *Hybrid) Lookup(pc uint64) Prediction {
	selIdx := h.sel.index(pc, h.ghist)
	gIdx := h.gpht.index(pc, h.ghist)
	gCtr := h.gpht.raw(gIdx)
	gBit := gCtr >> 1

	var (
		sIdx   uint32
		sCtr   uint8
		bhtIdx int32 = -1
		lPrior uint32
	)
	switch h.geo.Second {
	case HybridLocal:
		bhtIdx = int32((pc >> 2) & h.lbhtMask)
		lPrior = h.lbht[bhtIdx]
		sIdx = h.lpht.index(pc, uint64(lPrior))
		sCtr = h.lpht.raw(sIdx)
	case HybridBimodal:
		sIdx = h.bim.index(pc, 0)
		sCtr = h.bim.raw(sIdx)
	}
	sBit := sCtr >> 1

	u := h.sel.bit(selIdx) // 1 means "trust global"
	takenBit := sBit ^ (u & (gBit ^ sBit))
	p := Prediction{
		PC: pc, Taken: takenBit != 0,
		Index0: int32(gIdx), Index1: int32(sIdx), Index2: int32(selIdx), BHTIdx: bhtIdx,
		GHistPrior: h.ghist, LocalPrior: lPrior,
		GlobalTaken: gBit != 0, LocalTaken: sBit != 0, UsedGlobal: u != 0,
		BothStrong: strongBit(gCtr)&strongBit(sCtr)&(1^gBit^sBit) != 0,
	}
	h.ghist = h.ghist<<1 | uint64(takenBit)
	if bhtIdx >= 0 {
		h.lbht[bhtIdx] = (lPrior<<1 | uint32(takenBit)) & (uint32(1)<<h.lWidth - 1)
	}
	return p
}

// Unwind restores the global history and local BHT entry touched by p.
//
//bp:hotpath
func (h *Hybrid) Unwind(p *Prediction) {
	h.ghist = p.GHistPrior
	if p.BHTIdx >= 0 {
		h.lbht[p.BHTIdx] = p.LocalPrior
	}
}

// Redirect repairs histories with the resolved outcome.
//
//bp:hotpath
func (h *Hybrid) Redirect(p *Prediction, taken bool) {
	h.ghist = p.GHistPrior<<1 | b2u64(taken)
	if p.BHTIdx >= 0 {
		h.lbht[p.BHTIdx] = (p.LocalPrior<<1 | b2u32(taken)) & (uint32(1)<<h.lWidth - 1)
	}
}

// Update trains both components and, when they disagreed, the selector
// toward whichever component was right.
//
//bp:hotpath
func (h *Hybrid) Update(p *Prediction, taken bool) {
	h.gpht.train(p.Index0, taken)
	switch h.geo.Second {
	case HybridLocal:
		h.lpht.train(p.Index1, taken)
	case HybridBimodal:
		h.bim.train(p.Index1, taken)
	}
	if p.GlobalTaken != p.LocalTaken {
		h.sel.train(p.Index2, p.GlobalTaken == taken)
	}
}

// Tables describes all component tables for the power model.
func (h *Hybrid) Tables() []TableSpec {
	ts := []TableSpec{
		{Name: "selector", Kind: TableSelector, Entries: h.sel.entries(), Width: 2},
		{Name: "gpht", Kind: TablePHT, Entries: h.gpht.entries(), Width: 2},
	}
	switch h.geo.Second {
	case HybridLocal:
		ts = append(ts,
			TableSpec{Name: "lbht", Kind: TableBHT, Entries: len(h.lbht), Width: int(h.lWidth)},
			TableSpec{Name: "lpht", Kind: TablePHT, Entries: h.lpht.entries(), Width: 2},
		)
	case HybridBimodal:
		ts = append(ts, TableSpec{Name: "bimodal", Kind: TablePHT, Entries: h.bim.entries(), Width: 2})
	}
	return ts
}

// TotalBits returns the predictor storage in bits.
func (h *Hybrid) TotalBits() int {
	total := 0
	for _, t := range h.Tables() {
		total += t.Bits()
	}
	return total
}

var _ Predictor = (*Hybrid)(nil)

// Reset restores power-on state.
func (h *Hybrid) Reset() {
	h.ghist = 0
	h.sel.reset()
	h.gpht.reset()
	if h.lbht != nil {
		for i := range h.lbht {
			h.lbht[i] = 0
		}
		h.lpht.reset()
	}
	if h.bim.ctr != nil {
		h.bim.reset()
	}
}
