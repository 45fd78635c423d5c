package program

import (
	"fmt"

	"bpredpower/internal/isa"
	"bpredpower/internal/xrand"
)

// Step is one architecturally executed instruction: the static instruction,
// its resolved control-flow result, and its effective address if it touches
// memory.
type Step struct {
	// SI is the static instruction executed.
	SI *isa.StaticInst
	// Taken is the resolved direction for conditional branches (false for
	// every other class).
	Taken bool
	// NextPC is the address of the next architecturally executed
	// instruction: the target for taken control transfers, the fall-through
	// otherwise.
	NextPC uint64
	// MemAddr is the effective address for loads and stores.
	MemAddr uint64
	// Seq is the architectural sequence number of this step (0-based).
	Seq uint64
}

// Walker executes a Program architecturally, one instruction per Step call.
// It is the correct-path oracle: the cycle simulator fetches down predicted
// paths, but consults the Walker for actual outcomes and targets, freezing
// it while fetch is off the correct path.
//
// Walker state is purely architectural (PC, global outcome history, per-site
// occurrence counters, the call stack, memory stream cursors), so a given
// program always produces the identical dynamic instruction stream,
// independent of any predictor or pipeline configuration.
type Walker struct {
	p *Program
	// pc is the address of the next instruction to execute.
	pc uint64
	// ghist is the architectural global outcome history (bit 0 most recent).
	ghist uint64
	// occ counts per-site architectural executions.
	occ []uint64
	// callStack holds architectural return addresses.
	callStack []uint64
	// memCursor advances each region's sequential reference stream.
	memCursor []uint64
	// seq counts executed instructions.
	seq uint64
	// restarts counts defensive resets to the entry point (zero for valid
	// generated programs).
	restarts uint64
}

// NewWalker returns a Walker positioned at p's entry point.
func NewWalker(p *Program) *Walker {
	return &Walker{
		p:         p,
		pc:        p.Entry,
		occ:       make([]uint64, len(p.Sites)),
		memCursor: make([]uint64, len(p.Regions)),
	}
}

// Program returns the program being walked.
func (w *Walker) Program() *Program { return w.p }

// PC returns the address of the next instruction the walker will execute.
//
//bp:hotpath
func (w *Walker) PC() uint64 { return w.pc }

// GHist returns the architectural global outcome history register.
func (w *Walker) GHist() uint64 { return w.ghist }

// Seq returns the number of instructions executed so far.
func (w *Walker) Seq() uint64 { return w.seq }

// Restarts returns how many times the walker had to reset to the entry
// point because control flow left the code image (always zero for programs
// produced by Generate).
func (w *Walker) Restarts() uint64 { return w.restarts }

// Step architecturally executes the instruction at the walker's PC and
// advances. It never fails: if control flow somehow leaves the image the
// walker resets to the entry point and counts a restart.
//
//bp:hotpath
func (w *Walker) Step() Step {
	si := w.p.InstAt(w.pc)
	if si == nil {
		w.restarts++
		w.pc = w.p.Entry
		si = w.p.InstAt(w.pc)
		if si == nil {
			panic(fmt.Sprintf("program %s: entry %#x not in image", w.p.Name, w.p.Entry)) //bplint:allow hotreach -- panic-only corruption guard; formats once when the run is already dead
		}
	}
	st := Step{SI: si, NextPC: si.NextPC(), Seq: w.seq}
	switch si.Class {
	case isa.ClassBranch:
		site := &w.p.Sites[si.Site]
		occ := w.occ[si.Site]
		taken := site.Outcome(w.p.Seed, occ, w.ghist)
		w.occ[si.Site] = occ + 1
		w.ghist = w.ghist<<1 | b2u(taken)
		st.Taken = taken
		if taken {
			st.NextPC = si.Target
		}
	case isa.ClassJump:
		st.Taken = true
		st.NextPC = si.Target
	case isa.ClassCall:
		st.Taken = true
		st.NextPC = si.Target
		w.callStack = append(w.callStack, si.NextPC()) //bplint:allow hotreach -- bounded at 1024 entries just below; amortizes to zero growth
		// Bound the architectural stack defensively; generated call graphs
		// are DAGs so depth is bounded by the function count anyway.
		if len(w.callStack) > 1024 {
			w.callStack = w.callStack[len(w.callStack)-1024:]
		}
	case isa.ClassReturn:
		st.Taken = true
		if n := len(w.callStack); n > 0 {
			st.NextPC = w.callStack[n-1]
			w.callStack = w.callStack[:n-1]
		} else {
			// Unmatched return (cannot happen for generated programs):
			// restart at the entry.
			st.NextPC = w.p.Entry
		}
	case isa.ClassLoad, isa.ClassStore:
		st.MemAddr = w.memAddr(si)
	}
	w.pc = st.NextPC
	w.seq++
	return st
}

// memAddr computes the next effective address for a memory instruction per
// its region's stream parameters.
//
//bp:hotpath
func (w *Walker) memAddr(si *isa.StaticInst) uint64 {
	r := &w.p.Regions[si.MemBase]
	cur := w.memCursor[si.MemBase]
	w.memCursor[si.MemBase] = cur + 1
	base := regionBase(si.MemBase)
	size := r.Size
	if size == 0 {
		size = 1 << 20
	}
	if r.RandomFrac > 0 && xrand.HashBool(r.RandomFrac, w.p.Seed, uint64(si.MemBase)<<32|0xfeed, cur) {
		off := xrand.Hash64(w.p.Seed, uint64(si.MemBase), cur) % size
		return base + off&^7
	}
	stride := r.Stride
	if stride == 0 {
		stride = 8
	}
	return base + (cur*stride)%size
}

// regionBase spreads data regions far apart in the address space so their
// cache sets interleave realistically.
//
//bp:hotpath
func regionBase(class uint32) uint64 {
	return 0x1_0000_0000 + uint64(class)<<28
}

//bp:hotpath
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// WrongPathOutcome returns a plausible pseudo-outcome for a conditional
// branch executed on the wrong path. Wrong-path instructions never update
// architectural state, so the value needs only to be deterministic in the
// fetch context, not replayable across configurations.
//
//bp:hotpath
func WrongPathOutcome(seed, pc, fetchSeq uint64) bool {
	return xrand.HashBool(0.5, seed^0x57_0a7c, pc, fetchSeq)
}

// WrongPathMemAddr returns a plausible effective address for a wrong-path
// memory instruction.
//
//bp:hotpath
func WrongPathMemAddr(p *Program, si *isa.StaticInst, fetchSeq uint64) uint64 {
	if len(p.Regions) == 0 {
		return 0x1_0000_0000
	}
	r := si.MemBase % uint32(len(p.Regions))
	size := p.Regions[r].Size
	if size == 0 {
		size = 1 << 20
	}
	off := xrand.Hash64(p.Seed^0x3b9d, si.PC, fetchSeq) % size
	return regionBase(r) + off&^7
}
