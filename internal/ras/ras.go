// Package ras implements the return-address stack with the
// checkpoint/repair mechanism of Skadron et al. (MICRO-31): the fetch stage
// pushes on calls and pops on returns speculatively, and every branch
// checkpoints the top-of-stack pointer and the top entry's value so a squash
// can restore both, fixing the common corruption case of wrong-path
// pushes/pops.
//
// The paper's simulator models exactly this speculative update + repair for
// the RAS (its references [20, 21]).
package ras

// Snapshot captures the RAS state a checkpoint needs: the top-of-stack
// pointer and the value it points at.
type Snapshot struct {
	// Top is the top-of-stack index at checkpoint time.
	Top int
	// TopValue is stack[Top] at checkpoint time.
	TopValue uint64
}

// RAS is a circular return-address stack.
type RAS struct {
	stack []uint64
	top   int // index of the current top entry

	pushes, pops uint64
}

// New builds a RAS with the given entry count (32 in the paper's Table 1).
func New(entries int) *RAS {
	if entries < 1 {
		entries = 1
	}
	return &RAS{stack: make([]uint64, entries), top: entries - 1}
}

// Size returns the stack capacity.
func (r *RAS) Size() int { return len(r.stack) }

// Push records a return address (speculatively, at fetch of a call).
// The stack is circular: pushing beyond capacity silently overwrites the
// oldest entry, as in hardware.
//
//bp:hotpath
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = addr
	r.pushes++
}

// Pop predicts the target of a return (speculatively, at fetch).
//
//bp:hotpath
func (r *RAS) Pop() uint64 {
	addr := r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.pops++
	return addr
}

// Checkpoint captures repair state. Take one per fetched branch.
//
//bp:hotpath
func (r *RAS) Checkpoint() Snapshot {
	return Snapshot{Top: r.top, TopValue: r.stack[r.top]}
}

// Restore repairs the stack from a checkpoint after a squash.
//
//bp:hotpath
func (r *RAS) Restore(s Snapshot) {
	r.top = s.Top
	r.stack[s.Top] = s.TopValue
}

// Stats returns (pushes, pops).
func (r *RAS) Stats() (pushes, pops uint64) { return r.pushes, r.pops }

// Reset clears the stack and statistics.
func (r *RAS) Reset() {
	for i := range r.stack {
		r.stack[i] = 0
	}
	r.top = len(r.stack) - 1
	r.pushes, r.pops = 0, 0
}
