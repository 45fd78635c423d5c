package cpu

import (
	"bpredpower/internal/bpred"
	"bpredpower/internal/isa"
	"bpredpower/internal/ras"
)

// Per-entry boolean fields of the old array-of-structs robEntry, packed into
// one flags word so the hot scans read a single lane instead of ten bytes.
const (
	fWrongPath uint16 = 1 << iota
	fIsCond
	fIsCtl
	fHasPred
	fHasRAS
	fPredTaken
	fActualTaken
	fLowConf
	fResolved
	fIsMem
)

// classMeta caches the per-class facts the hot loops test on every
// instruction — the fIsCond/fIsCtl/fIsMem flag bits, the FP-cluster bit, and
// the execution latency — so one table load replaces three predicate calls
// and the latency switch. The table is 256 entries and indexed by the raw
// class byte, which eliminates the bounds check.
type classMeta struct {
	flags uint16
	fp    bool
	lat   uint8
}

var classTab [256]classMeta

func init() {
	for i := 0; i < isa.NumClasses; i++ {
		c := isa.Class(i)
		var f uint16
		if c.IsCondBranch() {
			f |= fIsCond
		}
		if c.IsControl() {
			f |= fIsCtl
		}
		if c.IsMem() {
			f |= fIsMem
		}
		classTab[i] = classMeta{flags: f, fp: c.IsFP(), lat: uint8(latency(c))}
	}
}

// entryStore is the structure-of-arrays layout for in-flight instructions:
// one parallel slice per field, indexed by ring slot. The RUU and the fetch
// queue each own one. Splitting the ~170-byte entry struct into lanes means
// the issue/writeback/commit scans touch only the lanes they test (flags,
// state, doneAt) instead of dragging whole entries through the cache, and
// the scan state itself lives in packed bitmaps on Sim.
type entryStore struct {
	si []*isa.StaticInst
	// op packs the scheduler-relevant StaticInst fields — class | dest<<8 |
	// src1<<16 | src2<<24 — so the rename and issue scans never chase the si
	// pointer.
	op         []uint32
	readyAt    []uint64 // cycle the front-end pipe delivers it to dispatch
	doneAt     []uint64
	predNext   []uint64 // where fetch proceeded after this instruction
	actualNext []uint64
	memAddr    []uint64
	dep1       []int64 // rob IDs of producers (-1 = none)
	dep2       []int64
	prevProd   []int64 // previous producer of si.Dest, for rename rollback
	pred       []bpred.Prediction
	rasSnap    []ras.Snapshot
	flags      []uint16
	state      []uint8
}

func newEntryStore(n int) entryStore {
	return entryStore{
		si:         make([]*isa.StaticInst, n),
		op:         make([]uint32, n),
		readyAt:    make([]uint64, n),
		doneAt:     make([]uint64, n),
		predNext:   make([]uint64, n),
		actualNext: make([]uint64, n),
		memAddr:    make([]uint64, n),
		dep1:       make([]int64, n),
		dep2:       make([]int64, n),
		prevProd:   make([]int64, n),
		pred:       make([]bpred.Prediction, n),
		rasSnap:    make([]ras.Snapshot, n),
		flags:      make([]uint16, n),
		state:      make([]uint8, n),
	}
}

func (e *entryStore) size() int { return len(e.flags) }

// moveFrom copies entry src of `from` into slot dst — only the lanes the
// back end reads. The fetch-side lanes (readyAt) die at dispatch; the
// scheduler lanes (doneAt, dep1/dep2, prevProd, state) are written by
// dispatch/issue before any read; and the prediction payloads are read only
// under their flag guards, so they copy only when a flag says they are live.
//
//bp:hotpath
func (e *entryStore) moveFrom(dst int, from *entryStore, src int) {
	e.si[dst] = from.si[src]
	e.op[dst] = from.op[src]
	e.predNext[dst] = from.predNext[src]
	e.actualNext[dst] = from.actualNext[src]
	e.memAddr[dst] = from.memAddr[src]
	f := from.flags[src]
	e.flags[dst] = f
	if f&(fHasPred|fHasRAS) != 0 {
		e.pred[dst] = from.pred[src]
		e.rasSnap[dst] = from.rasSnap[src]
	}
}
