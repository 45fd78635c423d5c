package cpu

import (
	"bpredpower/internal/bpred"
	"bpredpower/internal/gating"
	"bpredpower/internal/isa"
	"bpredpower/internal/ppd"
	"bpredpower/internal/program"
)

// fetch models the front end for one cycle: at most one I-cache line
// access, up to FetchWidth instructions, stopping at a predicted-taken
// control transfer, the cache-line boundary, or a full fetch buffer.
//
// Per the paper's extended fetch engine, every *active* fetch cycle charges
// one direction-predictor lookup and one BTB lookup (they are accessed in
// parallel with the I-cache), unless the PPD's pre-decode bits prove the
// line needs neither.
//
//bp:hotpath
func (s *Sim) fetch() {
	if s.cycle < s.fetchStallUntil || s.fetchHalted {
		return
	}
	if s.gate.ShouldStallFetch() {
		s.stats.GatedCycles++
		return
	}
	// The fetch-queue ring is sized to the front-end capacity (see New).
	if s.fqLen >= s.fqCap {
		return
	}

	// Active fetch cycle: access I-cache (and ITLB) for the current line.
	s.stats.FetchCycles++
	lat := s.il1.Access(s.fetchPC, false)
	lat += s.itlb.Access(s.fetchPC)
	lineIdx := s.il1.LastLineIndex()
	s.chargeFetch(lineIdx)
	if lat > s.cfg.IL1.HitLatency {
		// Miss: the line arrives later; fetch resumes then.
		s.fetchStallUntil = s.cycle + uint64(lat)
		s.stats.ICacheMissCycles += uint64(lat)
		return
	}

	lineBytes := uint64(s.cfg.IL1.BlockBytes)
	lineEnd := (s.fetchPC &^ (lineBytes - 1)) + lineBytes
	budget := s.cfg.FetchWidth

	for budget > 0 && s.fqLen < s.fqCap && s.fetchPC < lineEnd {
		stop := s.fetchOne()
		budget--
		if stop {
			break
		}
	}
}

// fetchOne fetches the instruction at fetchPC, predicts it if it is a
// control transfer, appends it to the fetch queue, and advances fetchPC.
// It returns true when fetch must end this cycle (taken prediction,
// misfetch bubble, or wrong path running off the image).
//
// The entry is built directly in its fetch-queue slot's lanes (the slot past
// the occupied span is free by construction); on the one early return the
// slot is simply left unclaimed.
//
//bp:hotpath
func (s *Sim) fetchOne() (stop bool) {
	fqi := s.fqHead + s.fqLen
	if fqi >= s.fqCap {
		fqi -= s.fqCap
	}
	fq := &s.fq
	seq := s.fetchSeq
	fq.readyAt[fqi] = s.cycle + 1 + uint64(s.cfg.ExtraStages)
	s.fetchSeq++

	var si *isa.StaticInst
	flags := uint16(0)
	if s.onWrongPath {
		si = s.prog.InstAt(s.fetchPC)
		if si == nil {
			// Wrong path left the code image: fetch idles until redirect.
			s.fetchHalted = true
			return true
		}
		fq.si[fqi] = si
		flags |= fWrongPath
		s.stats.WrongPathFetched++
	} else {
		if s.walker.PC() != s.fetchPC {
			panic("cpu: correct-path fetch diverged from the architectural walker")
		}
		st := s.walker.Step()
		si = st.SI
		fq.si[fqi] = si
		if st.Taken {
			flags |= fActualTaken
		}
		fq.actualNext[fqi] = st.NextPC
		fq.memAddr[fqi] = st.MemAddr
	}
	s.stats.Fetched++
	fq.op[fqi] = uint32(si.Class) | uint32(si.Dest)<<8 | uint32(si.Src1)<<16 | uint32(si.Src2)<<24

	cm := classTab[si.Class].flags
	flags |= cm
	isCond := cm&fIsCond != 0
	isCtl := cm&fIsCtl != 0
	isMem := cm&fIsMem != 0
	wrongPath := flags&fWrongPath != 0
	if wrongPath && isMem {
		fq.memAddr[fqi] = program.WrongPathMemAddr(s.prog, si, seq)
	}
	fq.flags[fqi] = flags

	next := si.NextPC()
	stopAfter := false
	if isCtl {
		next, stopAfter = s.predictControl(fqi)
		flags = fq.flags[fqi] // predictControl sets prediction flags
	}
	fq.predNext[fqi] = next

	// Wrong-path control flow: synthesize plausible outcomes so wrong-path
	// branches resolve and can re-redirect within the wrong path.
	if wrongPath {
		switch {
		case isCond:
			if program.WrongPathOutcome(s.prog.Seed, si.PC, seq) {
				flags |= fActualTaken
				fq.actualNext[fqi] = si.Target
			} else {
				fq.actualNext[fqi] = si.NextPC()
			}
		case si.Class == isa.ClassReturn:
			// No architectural stack to consult; treat the RAS prediction
			// as correct so wrong-path returns never re-redirect.
			flags |= fActualTaken
			fq.actualNext[fqi] = next
		case isCtl:
			flags |= fActualTaken
			fq.actualNext[fqi] = si.Target
		default:
			fq.actualNext[fqi] = si.NextPC()
		}
		fq.flags[fqi] = flags
	}

	// Detect fetch leaving the correct path.
	if !wrongPath && next != fq.actualNext[fqi] {
		s.onWrongPath = true
	}

	s.fqLen++
	s.fetchPC = next
	return stopAfter || (isCtl && next != si.NextPC())
}

// predictControl runs the front-end prediction machinery for the control
// instruction in fetch-queue slot fqi: direction predictor for conditional
// branches, BTB for taken targets, RAS for calls and returns. It returns the
// next fetch PC and whether fetch must stop after this instruction, and adds
// the prediction flags to the slot.
//
//bp:hotpath
func (s *Sim) predictControl(fqi int) (next uint64, stop bool) {
	fq := &s.fq
	si := fq.si[fqi]
	pc := si.PC
	if s.opt.ChargeLookupsPerBranch && si.Class.IsControl() {
		if si.Class.IsCondBranch() {
			for _, u := range s.pw.predTables {
				u.Read(1)
			}
		}
		for _, u := range s.pw.targetUnits {
			u.Read(1)
		}
	}
	switch si.Class {
	case isa.ClassBranch:
		pr := s.predLookup(pc)
		fq.pred[fqi] = pr
		flags := fq.flags[fqi] | fHasPred | fHasRAS
		if pr.Taken {
			flags |= fPredTaken
		}
		fq.rasSnap[fqi] = s.ras.Checkpoint()
		lowConf := s.gate.Enabled() && !s.highConfidence(fqi, flags, pr)
		if lowConf {
			flags |= fLowConf
			s.stats.LowConfFetched++
		}
		fq.flags[fqi] = flags
		s.gate.OnFetchBranch(!lowConf)
		if !pr.Taken {
			return si.NextPC(), false
		}
		if target, hit := s.targetLookup(pc); hit && target == si.Target {
			return target, true
		}
		// Target-mechanism miss (or a stale/aliased next-line entry) on a
		// predicted-taken direct branch: the decoder computes the target one
		// cycle later — a misfetch bubble.
		s.misfetch()
		return si.Target, true

	case isa.ClassJump:
		fq.flags[fqi] |= fPredTaken
		if target, hit := s.targetLookup(pc); hit && target == si.Target {
			return si.Target, true
		}
		s.misfetch()
		return si.Target, true

	case isa.ClassCall:
		fq.flags[fqi] |= fPredTaken
		s.ras.Push(si.NextPC())
		s.pw.rasUnit.Write(1)
		if target, hit := s.targetLookup(pc); hit && target == si.Target {
			return si.Target, true
		}
		s.misfetch()
		return si.Target, true

	case isa.ClassReturn:
		fq.flags[fqi] |= fPredTaken | fHasRAS
		fq.rasSnap[fqi] = s.ras.Checkpoint()
		target := s.ras.Pop()
		s.pw.rasUnit.Read(1)
		return target, true
	}
	return si.NextPC(), false
}

// highConfidence applies the configured confidence estimator to a fetched
// conditional branch prediction.
//
//bp:hotpath
func (s *Sim) highConfidence(fqi int, flags uint16, pr bpred.Prediction) bool {
	switch s.gate.Config().Estimator {
	case gating.EstimatorJRS:
		return s.gate.JRSTable().HighConfidence(s.fq.si[fqi].PC)
	case gating.EstimatorPerfect:
		// Oracle: for wrong-path branches the actual outcome is not yet
		// synthesized at this point; treat them as low confidence, which is
		// what a perfect estimator would effectively do on a wrong path.
		return flags&fWrongPath == 0 && pr.Taken == (flags&fActualTaken != 0)
	default:
		return pr.BothStrong
	}
}

// misfetch records a BTB miss on a predicted-taken direct control transfer:
// the decoder supplies the target one cycle later, so fetch skips a cycle.
//
//bp:hotpath
func (s *Sim) misfetch() {
	s.stats.BTBMisfetches++
	if s.fetchStallUntil < s.cycle+2 {
		s.fetchStallUntil = s.cycle + 2
	}
}

// chargeFetch charges the per-active-cycle front-end power: I-cache, ITLB,
// PPD (when present), and — unless the PPD proves them unnecessary — the
// direction predictor and BTB.
//
//bp:hotpath
func (s *Sim) chargeFetch(lineIdx int) {
	s.pw.il1Data.Read(1)
	s.pw.il1Tag.Read(1)
	s.pw.itlbUnit.Read(1)

	if s.opt.ChargeLookupsPerBranch {
		// Ablation: per-branch charging happens in predictControl instead.
		return
	}
	needDir, needBTB := true, true
	if s.ppd != nil {
		s.pw.ppdUnit.Read(1)
		needDir, needBTB = s.ppd.Probe(lineIdx)
	}
	switch {
	case needDir:
		for _, u := range s.pw.predTables {
			u.Read(1)
		}
		s.stats.DirLookupCycles++
	case s.opt.PPD == ppd.Scenario2:
		for _, u := range s.pw.predTables {
			u.Partial(1)
		}
	}
	switch {
	case needBTB:
		for _, u := range s.pw.targetUnits {
			u.Read(1)
		}
		s.stats.BTBLookupCycles++
	case s.opt.PPD == ppd.Scenario2:
		for _, u := range s.pw.targetUnits {
			u.Partial(1)
		}
	}
}
