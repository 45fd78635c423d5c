package bpred

import "fmt"

// State is an opaque deep copy of a predictor's mutable state. It is a
// sealed carrier: the payload is a per-family snapshot value produced by the
// predictor's own Checkpointer capability, so the package never needs to
// know every family's state shape centrally. Counter tables, tagged
// geometric-history tables, signed weight vectors, history registers, and
// allocator state all round-trip through the same type.
type State struct {
	snap snapshot
}

// snapshot seals the per-family payload types: only this package's
// predictor families can define them.
type snapshot interface {
	isSnapshot()
}

// Checkpointer is the checkpoint capability. A predictor family implements
// it by deep-copying its mutable state into a State and restoring from one;
// cpu.Checkpoint/Restore require it. CaptureState must deep-copy (the
// snapshot must stay valid while the live predictor keeps mutating) and
// RestoreState must be bit-exact (checkpoint-stitched runs diff final
// statistics byte-for-byte against monolithic ones).
type Checkpointer interface {
	// CaptureState deep-copies the predictor's mutable state.
	CaptureState() State
	// RestoreState applies a State previously captured from a predictor of
	// the same configuration.
	RestoreState(State)
}

// CaptureState snapshots p's mutable state via its Checkpointer capability.
// It returns an error naming the concrete type and the missing capability
// for predictors that do not implement it (e.g. external test doubles) —
// every predictor constructed through this package's registry is supported.
func CaptureState(p Predictor) (State, error) {
	c, ok := p.(Checkpointer)
	if !ok {
		return State{}, fmt.Errorf("bpred: predictor type %T does not implement bpred.Checkpointer (CaptureState/RestoreState); cpu.Checkpoint and cpu.Restore require the capability", p)
	}
	return c.CaptureState(), nil
}

// RestoreState applies a State previously captured from a predictor of the
// same configuration, via p's Checkpointer capability.
func RestoreState(p Predictor, s State) error {
	c, ok := p.(Checkpointer)
	if !ok {
		return fmt.Errorf("bpred: predictor type %T does not implement bpred.Checkpointer (CaptureState/RestoreState); cpu.Checkpoint and cpu.Restore require the capability", p)
	}
	c.RestoreState(s)
	return nil
}

// MustCaptureState is CaptureState for callers with no error path (the cpu
// checkpoint machinery): it panics with the capability error instead.
func MustCaptureState(p Predictor) State {
	s, err := CaptureState(p)
	if err != nil {
		panic(err)
	}
	return s
}

// MustRestoreState is RestoreState for callers with no error path.
func MustRestoreState(p Predictor, s State) {
	if err := RestoreState(p, s); err != nil {
		panic(err)
	}
}

// tableSnap is the shared snapshot payload of the classic counter-table
// families (bimodal, two-level, gselect, PAg, PAs, alloyed, hybrid): 2-bit
// counter tables, local-history register files, and scalar history
// registers, in a fixed per-family order.
type tableSnap struct {
	ctrs [][]uint8
	bhts [][]uint32
	regs []uint64
}

func (*tableSnap) isSnapshot() {}

func cloneCtr(c counters) []uint8 { return append([]uint8(nil), c...) }

func cloneBHT(b []uint32) []uint32 { return append([]uint32(nil), b...) }

// tables unwraps a State captured by a counter-table family, panicking on a
// cross-family State (a configuration mismatch the caller promised away).
func (s State) tables() *tableSnap {
	t, ok := s.snap.(*tableSnap)
	if !ok {
		panic(fmt.Sprintf("bpred: state payload %T is not a counter-table snapshot", s.snap))
	}
	return t
}

func (t *tableSnap) restoreCtr(dst counters, i int) {
	if len(t.ctrs[i]) != len(dst) {
		panic("bpred: state counter-table size mismatch")
	}
	copy(dst, t.ctrs[i])
}

func (t *tableSnap) restoreBHT(dst []uint32, i int) {
	if len(t.bhts[i]) != len(dst) {
		panic("bpred: state history-table size mismatch")
	}
	copy(dst, t.bhts[i])
}
