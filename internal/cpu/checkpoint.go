package cpu

import (
	"bpredpower/internal/bpred"
	"bpredpower/internal/btb"
	"bpredpower/internal/cache"
	"bpredpower/internal/gating"
	"bpredpower/internal/isa"
	"bpredpower/internal/power"
	"bpredpower/internal/ppd"
	"bpredpower/internal/program"
	"bpredpower/internal/ras"
)

// Checkpoint is a deep copy of every piece of mutable simulation state: the
// pipeline (fetch queue, RUU ring, scheduler bitmaps, rename map), the
// architectural walker, all predictor/target/confidence structures, the
// memory hierarchy, statistics, and the power meter's lifetime counters.
//
// Restoring a Checkpoint into a Sim built with the same program and Options
// resumes the simulation exactly: every subsequent cycle — and therefore
// every statistic and every energy reading — is bit-for-bit identical to a
// run that never paused. No simulation path hands state between Sims
// today (experiments.simulate advances one Sim in RunTo chunks); the
// capability is kept for handing warmed state to another simulator, and its
// tests pin the resume identity.
type Checkpoint struct {
	cycle uint64

	fetchPC         uint64
	onWrongPath     bool
	fetchHalted     bool
	fetchStallUntil uint64
	fetchSeq        uint64

	fq     entryStore
	fqHead int
	fqLen  int

	rob    entryStore
	headID int64
	tailID int64

	readyBits []uint64
	doneBits  []uint64
	wheel     []uint64
	wakers    []uint64
	depCount  []uint8

	lsqUsed  int
	regProd  [isa.NumArchRegs]int64
	divBusy  uint64
	fdivBusy uint64

	lastL2Accesses uint64

	linePred      []uint64
	linePredValid []bool

	stats Stats

	walker program.WalkerState
	pred   bpred.State
	btb    btb.State
	ras    ras.State
	ppd    ppd.State
	hasPPD bool
	gate   gating.State

	il1, dl1, l2 cache.State
	itlb, dtlb   cache.TLBState
	mem          cache.MainMemory

	meter power.MeterState
}

// Checkpoint captures the simulator's complete mutable state. The receiver
// is unmodified and can keep running; the checkpoint shares nothing with it.
func (s *Sim) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		cycle: s.cycle,

		fetchPC:         s.fetchPC,
		onWrongPath:     s.onWrongPath,
		fetchHalted:     s.fetchHalted,
		fetchStallUntil: s.fetchStallUntil,
		fetchSeq:        s.fetchSeq,

		fqHead: s.fqHead,
		fqLen:  s.fqLen,

		headID: s.headID,
		tailID: s.tailID,

		readyBits: append([]uint64(nil), s.readyBits...),
		doneBits:  append([]uint64(nil), s.doneBits...),
		wheel:     append([]uint64(nil), s.wheel...),
		wakers:    append([]uint64(nil), s.wakers...),
		depCount:  append([]uint8(nil), s.depCount...),

		lsqUsed:  s.lsqUsed,
		regProd:  s.regProd,
		divBusy:  s.divBusy,
		fdivBusy: s.fdivBusy,

		lastL2Accesses: s.lastL2Accesses,

		stats: s.stats,

		walker: s.walker.State(),
		pred:   bpred.MustCaptureState(s.pred),
		btb:    s.btb.State(),
		ras:    s.ras.State(),
		gate:   s.gate.State(),

		il1:  s.il1.State(),
		dl1:  s.dl1.State(),
		l2:   s.l2.State(),
		itlb: s.itlb.State(),
		dtlb: s.dtlb.State(),
		mem:  *s.mem,

		meter: s.meter.State(),
	}
	cp.fq = newEntryStore(s.fq.size())
	cp.fq.copyAllFrom(&s.fq)
	cp.rob = newEntryStore(s.rob.size())
	cp.rob.copyAllFrom(&s.rob)
	if s.ppd != nil {
		cp.ppd = s.ppd.State()
		cp.hasPPD = true
	}
	if s.linePred != nil {
		cp.linePred = append([]uint64(nil), s.linePred...)
		cp.linePredValid = append([]bool(nil), s.linePredValid...)
	}
	return cp
}

// Restore overwrites the simulator's mutable state with cp's. The Sim must
// have been built with the same program and Options as the Sim cp was
// captured from (geometry mismatches panic; matching geometry but different
// configuration silently resumes the wrong machine). The checkpoint is not
// consumed: the same cp can seed any number of Sims.
func (s *Sim) Restore(cp *Checkpoint) {
	if cp.fq.size() != s.fq.size() || cp.rob.size() != s.rob.size() {
		panic("cpu: checkpoint ring geometry does not match this simulator")
	}
	if (cp.hasPPD) != (s.ppd != nil) || (cp.linePred != nil) != (s.linePred != nil) {
		panic("cpu: checkpoint options do not match this simulator")
	}
	s.cycle = cp.cycle

	s.fetchPC = cp.fetchPC
	s.onWrongPath = cp.onWrongPath
	s.fetchHalted = cp.fetchHalted
	s.fetchStallUntil = cp.fetchStallUntil
	s.fetchSeq = cp.fetchSeq

	s.fq.copyAllFrom(&cp.fq)
	s.fqHead = cp.fqHead
	s.fqLen = cp.fqLen

	s.rob.copyAllFrom(&cp.rob)
	s.headID = cp.headID
	s.tailID = cp.tailID

	copy(s.readyBits, cp.readyBits)
	copy(s.doneBits, cp.doneBits)
	copy(s.wheel, cp.wheel)
	copy(s.wakers, cp.wakers)
	copy(s.depCount, cp.depCount)

	s.lsqUsed = cp.lsqUsed
	s.regProd = cp.regProd
	s.divBusy = cp.divBusy
	s.fdivBusy = cp.fdivBusy

	s.lastL2Accesses = cp.lastL2Accesses

	s.stats = cp.stats

	s.walker.SetState(cp.walker)
	bpred.MustRestoreState(s.pred, cp.pred)
	s.btb.SetState(cp.btb)
	s.ras.SetState(cp.ras)
	s.gate.SetState(cp.gate)
	if s.ppd != nil {
		s.ppd.SetState(cp.ppd)
	}
	if s.linePred != nil {
		copy(s.linePred, cp.linePred)
		copy(s.linePredValid, cp.linePredValid)
	}

	// The L1s keep their next-level pointers (and il1 its OnRefill hook, a
	// closure over this Sim): SetState replaces contents only.
	s.il1.SetState(cp.il1)
	s.dl1.SetState(cp.dl1)
	s.l2.SetState(cp.l2)
	s.itlb.SetState(cp.itlb)
	s.dtlb.SetState(cp.dtlb)
	*s.mem = cp.mem

	s.meter.SetState(cp.meter)
}
