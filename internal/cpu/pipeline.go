package cpu

import (
	"math/bits"

	"bpredpower/internal/isa"
)

// latency returns the execution latency of an operation class. Loads add
// their memory latency at issue; stores retire through the LSQ at commit.
//
//bp:hotpath
func latency(c isa.Class) uint64 {
	switch c {
	case isa.ClassIntALU, isa.ClassNop, isa.ClassBranch, isa.ClassJump,
		isa.ClassCall, isa.ClassReturn, isa.ClassStore:
		return 1
	case isa.ClassIntMult:
		return 3
	case isa.ClassIntDiv:
		return 20
	case isa.ClassFPALU:
		return 2
	case isa.ClassFPMult:
		return 4
	case isa.ClassFPDiv:
		return 12
	case isa.ClassLoad:
		return 1 // plus the D-cache access, added at issue
	}
	return 1
}

// dispatch moves up to DecodeWidth instructions whose front-end delay has
// elapsed from the fetch queue into the RUU (and LSQ for memory ops),
// renaming their register operands. Dependences are registered once here —
// a consumer leaves its slot bit in each live producer's waker bitmap and
// counts them in depCount — so issue never re-walks producers.
//
//bp:hotpath
func (s *Sim) dispatch() {
	n, nMem := 0, 0
	mask := int(s.robMask)
	width := s.cfg.DecodeWidth
	ruuCap := s.cfg.RUUSize
	lsqCap := s.cfg.LSQSize
	state := s.rob.state
	wakers := s.wakers
	nw := s.nw
	for n < width && s.fqLen > 0 {
		fqi := s.fqHead
		if s.cycle < s.fq.readyAt[fqi] {
			break
		}
		if s.robCount() >= ruuCap {
			break
		}
		isMem := s.fq.flags[fqi]&fIsMem != 0
		if isMem && s.lsqUsed+nMem >= lsqCap {
			break
		}
		ts := int(s.tailID) & mask
		s.rob.moveFrom(ts, &s.fq, fqi)
		s.fqHead++
		if s.fqHead == s.fqCap {
			s.fqHead = 0
		}
		s.fqLen--

		// Rename: record producers of the sources, become producer of dest.
		state[ts] = stDispatched
		op := s.rob.op[ts]
		d1 := s.producerOf(uint8(op >> 16))
		d2 := s.producerOf(uint8(op >> 24))
		if d2 == d1 {
			d2 = -1 // one wakeup satisfies both operands
		}
		s.rob.dep1[ts] = d1
		s.rob.dep2[ts] = d2
		deps := uint8(0)
		if d1 >= 0 {
			ps := int(d1) & mask
			if state[ps] != stDone {
				deps++
				wakers[ps*nw+ts>>6] |= 1 << uint(ts&63)
			}
		}
		if d2 >= 0 {
			ps := int(d2) & mask
			if state[ps] != stDone {
				deps++
				wakers[ps*nw+ts>>6] |= 1 << uint(ts&63)
			}
		}
		s.depCount[ts] = deps
		if deps == 0 {
			s.readyBits[ts>>6] |= 1 << uint(ts&63)
		}
		if d := uint8(op >> 8); d != isa.RegZero {
			s.rob.prevProd[ts] = s.regProd[d]
			s.regProd[d] = s.tailID
		}
		if isMem {
			nMem++
		}
		s.tailID++
		n++
	}
	if n > 0 {
		s.pw.renameUnit.Read(n)
		s.pw.windowUnit.Write(n)
		s.stats.Dispatched += uint64(n)
	}
	if nMem > 0 {
		s.lsqUsed += nMem
		s.pw.lsqUnit.Write(nMem)
	}
}

// producerOf returns the rob ID of the in-flight producer of reg, or -1.
//
//bp:hotpath
func (s *Sim) producerOf(reg uint8) int64 {
	if reg == isa.RegZero {
		return -1
	}
	p := s.regProd[reg]
	if p < s.headID {
		return -1 // already committed
	}
	return p
}

// issue selects up to IssueWidth ready instructions (4 int + 2 FP, bounded
// by memory ports and divider occupancy), oldest first, and starts their
// execution. Candidates come straight off the ready bitmap, scanned in
// ring-age order from the head slot with TrailingZeros64; entries blocked
// only by structural hazards keep their bit for next cycle.
//
//bp:hotpath
func (s *Sim) issue() {
	intLeft := s.cfg.IntIssue
	fpLeft := s.cfg.FPIssue
	memLeft := s.cfg.MemPorts
	total := s.cfg.IssueWidth

	nIssued, nMem, nLoad := 0, 0, 0
	var nIalu, nImult, nFalu, nFmult int

	mask := int(s.robMask)
	hs := int(s.headID) & mask
	hw, hb := hs>>6, uint(hs&63)
	nw := s.nw
	ops := s.rob.op
	fl := s.rob.flags
	state := s.rob.state
	doneAt := s.rob.doneAt
	// slot < nw<<6 == len(ops) by construction; the &sm re-derivation lets
	// the compiler drop the bounds checks on every lane access.
	sm := len(ops) - 1
	for vi := 0; vi <= nw && total > 0; vi++ {
		wi := (hw + vi) & (nw - 1)
		w := s.readyBits[wi]
		if vi == 0 {
			w &= ^uint64(0) << hb
		} else if vi == nw {
			w &= 1<<hb - 1
		}
		for w != 0 && total > 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			slot := (wi<<6 | b) & sm

			cb := uint8(ops[slot])
			c := isa.Class(cb)
			cm := classTab[cb]
			fp := cm.fp
			if fp {
				if fpLeft == 0 {
					continue
				}
			} else if intLeft == 0 {
				continue
			}
			isMem := fl[slot]&fIsMem != 0
			if isMem && memLeft == 0 {
				continue
			}
			// Unpipelined dividers.
			switch c {
			case isa.ClassIntDiv:
				if s.divBusy > s.cycle {
					continue
				}
				s.divBusy = s.cycle + uint64(cm.lat)
			case isa.ClassFPDiv:
				if s.fdivBusy > s.cycle {
					continue
				}
				s.fdivBusy = s.cycle + uint64(cm.lat)
			}

			lat := uint64(cm.lat)
			if c == isa.ClassLoad {
				addr := s.rob.memAddr[slot]
				dlat := s.dl1.Access(addr, false)
				dlat += s.dtlb.Access(addr)
				lat += uint64(dlat)
				nLoad++
			}
			if lat >= s.wheelRows {
				panic("cpu: execution latency exceeds the event-wheel span")
			}
			state[slot] = stIssued
			done := s.cycle + lat
			doneAt[slot] = done
			s.readyBits[wi] &^= 1 << uint(b)
			s.wheel[int(done&s.wheelMask)*nw+slot>>6] |= 1 << uint(slot&63)

			if fp {
				fpLeft--
			} else {
				intLeft--
			}
			if isMem {
				memLeft--
				nMem++
			}
			total--
			nIssued++

			switch c {
			case isa.ClassIntMult, isa.ClassIntDiv:
				nImult++
			case isa.ClassFPALU:
				nFalu++
			case isa.ClassFPMult, isa.ClassFPDiv:
				nFmult++
			default:
				nIalu++
			}
		}
	}
	if nIssued > 0 {
		s.pw.windowUnit.Read(nIssued)
		s.pw.regfileUnit.Read(2 * nIssued)
		s.stats.Issued += uint64(nIssued)
	}
	if nMem > 0 {
		s.pw.lsqUnit.Read(nMem)
	}
	if nLoad > 0 {
		s.pw.dl1Data.Read(nLoad)
		s.pw.dl1Tag.Read(nLoad)
		s.pw.dtlbUnit.Read(nLoad)
	}
	if nIalu > 0 {
		s.pw.ialuUnit.Read(nIalu)
	}
	if nImult > 0 {
		s.pw.imultUnit.Read(nImult)
	}
	if nFalu > 0 {
		s.pw.faluUnit.Read(nFalu)
	}
	if nFmult > 0 {
		s.pw.fmultUnit.Read(nFmult)
	}
}

// writebackAndResolve completes the instructions whose results arrive this
// cycle — the current event-wheel row, processed in ring-age order —
// broadcasts their results by draining each completer's waker bitmap, and
// resolves control transfers, squashing and redirecting on mispredictions.
// A resolve may squash younger entries out of the same row; re-reading the
// row word after each entry keeps the iteration exact.
//
//bp:hotpath
func (s *Sim) writebackAndResolve() {
	nw := s.nw
	base := int(s.cycle&s.wheelMask) * nw
	mask := int(s.robMask)
	hs := int(s.headID) & mask
	hw, hb := hs>>6, uint(hs&63)
	nDone := 0
	for vi := 0; vi <= nw; vi++ {
		wi := (hw + vi) & (nw - 1)
		vmask := ^uint64(0)
		if vi == 0 {
			vmask <<= hb
		} else if vi == nw {
			vmask = 1<<hb - 1
		}
		for {
			w := s.wheel[base+wi] & vmask
			if w == 0 {
				break
			}
			b := bits.TrailingZeros64(w)
			s.wheel[base+wi] &^= 1 << uint(b)
			slot := wi<<6 | b

			s.rob.state[slot] = stDone
			s.doneBits[wi] |= 1 << uint(b)
			s.wake(slot)
			nDone++

			f := s.rob.flags[slot]
			if f&fIsCtl != 0 && f&fResolved == 0 {
				id := s.headID + int64((slot-hs)&mask)
				s.resolve(id, slot)
				// resolve may squash entries past id; their row and ready
				// bits are cleared, so the re-read above skips them.
			}
		}
	}
	if nDone > 0 {
		s.pw.resultBus.Write(nDone)
		s.pw.regfileUnit.Write(nDone)
		s.pw.windowUnit.Read(nDone) // wakeup broadcast
	}
}

// wake drains the completing slot's waker bitmap: each waiting consumer
// loses one outstanding producer and becomes issue-ready at zero.
//
//bp:hotpath
func (s *Sim) wake(slot int) {
	nw := s.nw
	wakers := s.wakers
	depCount := s.depCount
	dm := len(depCount) - 1 // cs < nw<<6 == len(depCount); mask drops bounds checks
	wrow := slot * nw
	for cw := 0; cw < nw; cw++ {
		cbits := wakers[wrow+cw]
		if cbits == 0 {
			continue
		}
		wakers[wrow+cw] = 0
		for cbits != 0 {
			cb := bits.TrailingZeros64(cbits)
			cbits &^= 1 << uint(cb)
			cs := (cw<<6 | cb) & dm
			depCount[cs]--
			if depCount[cs] == 0 {
				s.readyBits[cw] |= 1 << uint(cb)
			}
		}
	}
}

// resolve checks a completed control transfer against its prediction and
// recovers on a mispredict.
//
//bp:hotpath
func (s *Sim) resolve(id int64, slot int) {
	f := s.rob.flags[slot]
	s.rob.flags[slot] = f | fResolved
	if f&fIsCond != 0 {
		s.gate.OnRemoveBranch(f&fLowConf == 0)
	}
	// Recovery is needed exactly when fetch proceeded down the wrong path.
	// (Direction accuracy is accounted separately at commit; generated
	// programs never have a conditional whose taken target equals its
	// fall-through, so for them direction-wrong implies path-wrong.)
	actualNext := s.rob.actualNext[slot]
	if s.rob.predNext[slot] == actualNext {
		return
	}
	if f&fWrongPath == 0 {
		s.stats.Mispredicts++
	}
	s.squashAfter(id)
	// Repair speculative predictor history with the resolved outcome.
	if f&fHasPred != 0 {
		s.predRedirect(&s.rob.pred[slot], f&fActualTaken != 0)
	}
	// Repair the RAS, then re-apply this instruction's own stack operation.
	if f&fHasRAS != 0 {
		s.ras.Restore(s.rob.rasSnap[slot])
		switch s.rob.si[slot].Class {
		case isa.ClassCall:
			s.ras.Push(s.rob.si[slot].NextPC())
		case isa.ClassReturn:
			s.ras.Pop()
		}
	}
	// Redirect fetch.
	wrong := f&fWrongPath != 0
	s.fetchPC = actualNext
	s.onWrongPath = wrong
	s.fetchHalted = wrong && s.prog.InstAt(actualNext) == nil
	if bubble := s.cycle + uint64(s.cfg.RedirectBubble); s.fetchStallUntil < bubble {
		s.fetchStallUntil = bubble
	}
}

// squashAfter removes every entry younger than id from the machine: fetch
// queue entries, then ROB entries youngest-first (unwinding predictor
// history, rename state, LSQ occupancy, and gating counts), scrubbing each
// squashed slot out of the scheduler bitmaps it still occupies.
//
//bp:hotpath
func (s *Sim) squashAfter(id int64) {
	// The entire fetch queue is younger than any ROB entry.
	for i := s.fqLen - 1; i >= 0; i-- {
		j := s.fqHead + i
		if j >= s.fqCap {
			j -= s.fqCap
		}
		s.unfetch(&s.fq, j)
	}
	s.fqLen = 0

	mask := int(s.robMask)
	for y := s.tailID - 1; y > id; y-- {
		ys := int(y) & mask
		s.unfetch(&s.rob, ys)
		if d := uint8(s.rob.op[ys] >> 8); d != isa.RegZero && s.regProd[d] == y {
			s.regProd[d] = s.rob.prevProd[ys]
		}
		if s.rob.flags[ys]&fIsMem != 0 {
			s.lsqUsed--
		}
		yw, yb := ys>>6, uint(ys&63)
		switch s.rob.state[ys] {
		case stDispatched:
			s.readyBits[yw] &^= 1 << yb
			if s.depCount[ys] != 0 {
				// Deregister from the surviving producers, or a later
				// writeback would wake whatever reuses this slot.
				s.clearWaiterBit(s.rob.dep1[ys], ys)
				s.clearWaiterBit(s.rob.dep2[ys], ys)
				s.depCount[ys] = 0
			}
		case stIssued:
			s.wheel[int(s.rob.doneAt[ys]&s.wheelMask)*s.nw+yw] &^= 1 << yb
		case stDone:
			s.doneBits[yw] &^= 1 << yb
		}
		// Younger consumers may still be registered on this slot; they are
		// all squashed with it, so drop the whole waker row.
		wrow := ys * s.nw
		for cw := 0; cw < s.nw; cw++ {
			s.wakers[wrow+cw] = 0
		}
		s.stats.Squashed++
	}
	s.tailID = id + 1
}

// clearWaiterBit removes consumer slot ys from producer dep's waker bitmap
// (a no-op for absent or already-completed producers, whose rows are empty).
//
//bp:hotpath
func (s *Sim) clearWaiterBit(dep int64, ys int) {
	if dep < 0 || dep < s.headID {
		return
	}
	ds := int(dep) & int(s.robMask)
	s.wakers[ds*s.nw+ys>>6] &^= 1 << uint(ys&63)
}

// unfetch undoes the speculative front-end effects of a fetched entry:
// predictor history and gating accounting.
//
//bp:hotpath
func (s *Sim) unfetch(es *entryStore, i int) {
	f := es.flags[i]
	if f&fHasPred != 0 {
		s.predUnwind(&es.pred[i])
	}
	if f&fIsCond != 0 && f&fResolved == 0 {
		s.gate.OnRemoveBranch(f&fLowConf == 0)
	}
}

// commitRun returns how many instructions commit this cycle: the length of
// the contiguous completed run at the RUU head, capped at CommitWidth. The
// done bitmap is rotated so the head slot lands at bit 0 and the run is one
// TrailingZeros64 of the inverted word — no per-entry scan. (Bits past the
// tail are always clear, so the run never overruns occupancy; New rejects
// CommitWidth > 64.)
//
//bp:hotpath
func (s *Sim) commitRun() int {
	hs := int(s.headID) & int(s.robMask)
	hw, hb := hs>>6, uint(hs&63)
	x := s.doneBits[hw] >> hb
	x |= s.doneBits[(hw+1)&(s.nw-1)] << (64 - hb)
	run := bits.TrailingZeros64(^x)
	if run > s.cfg.CommitWidth {
		run = s.cfg.CommitWidth
	}
	return run
}

// CommitScanLen reports how many RUU entries the commit stage would retire
// on the next cycle — the result of the branch-free done-bitmap scan, read
// without advancing simulation. Exposed for introspection and for
// microbenchmarking the SoA scan in cmd/bpbench.
func (s *Sim) CommitScanLen() int { return s.commitRun() }

// commit retires the completed run at the head of the RUU in program order,
// training the predictor and BTB and performing store writes.
//
//bp:hotpath
func (s *Sim) commit() {
	run := s.commitRun()
	mask := int(s.robMask)
	nStore, nCond, nJRS, nTgt := 0, 0, 0, 0
	for n := 0; n < run; n++ {
		hs := int(s.headID) & mask
		f := s.rob.flags[hs]
		if f&fWrongPath != 0 {
			panic("cpu: wrong-path instruction reached commit")
		}
		c := isa.Class(uint8(s.rob.op[hs]))
		if f&fIsMem != 0 {
			s.lsqUsed--
		}
		if c == isa.ClassStore {
			addr := s.rob.memAddr[hs]
			s.dl1.Access(addr, true)
			s.dtlb.Access(addr)
			nStore++
		}
		actualTaken := f&fActualTaken != 0
		if f&fIsCond != 0 {
			s.predUpdate(&s.rob.pred[hs], actualTaken)
			nCond++
			correct := (f&fPredTaken != 0) == actualTaken
			if j := s.gate.JRSTable(); j != nil {
				j.Train(s.rob.si[hs].PC, correct)
				nJRS++
			}
			s.stats.noteCondCommit(correct, s.stats.Committed)
		}
		if f&fIsCtl != 0 {
			s.stats.noteCtlCommit(s.stats.Committed)
			if actualTaken && c != isa.ClassReturn {
				s.targetUpdate(s.rob.si[hs].PC, s.rob.actualNext[hs])
				nTgt++
			}
		}
		s.doneBits[hs>>6] &^= 1 << uint(hs&63)
		s.headID++
		s.stats.Committed++
	}
	if nStore > 0 {
		s.pw.dl1Data.Write(nStore)
		s.pw.dl1Tag.Read(nStore)
		s.pw.dtlbUnit.Read(nStore)
	}
	if nCond > 0 {
		for _, u := range s.pw.predTables {
			u.Write(nCond)
		}
	}
	if nJRS > 0 {
		s.pw.jrsUnit.Write(nJRS)
	}
	if nTgt > 0 {
		for _, u := range s.pw.targetUnits {
			u.Write(nTgt)
		}
	}
	// Charge the L2 for the accesses the L1s pushed down this cycle.
	l2acc := s.l2.Stats().Accesses
	if d := l2acc - s.lastL2Accesses; d > 0 {
		s.pw.l2Data.Read(int(d))
		s.pw.l2Tag.Read(int(d))
	}
	s.lastL2Accesses = l2acc
}
