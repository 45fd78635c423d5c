package bpred

import (
	"strings"
	"testing"
)

// drive advances a predictor through one deterministic mixed
// lookup/update/unwind/redirect step and returns the prediction made.
func drive(p Predictor, i int, seq *uint64) Prediction {
	*seq = *seq*6364136223846793005 + 1442695040888963407
	pc := (*seq >> 33) & 0x3ff * 4
	taken := *seq&0x30000 != 0
	pr := p.Lookup(pc)
	switch i % 5 {
	case 0, 1, 2:
		p.Update(&pr, taken)
	case 3:
		p.Unwind(&pr)
	case 4:
		p.Redirect(&pr, taken)
		p.Update(&pr, taken)
	}
	return pr
}

// Every registered configuration must implement the Checkpointer capability
// with a deep, bit-exact snapshot: capture must be unaffected by later
// mutation of the live predictor, and restore must reproduce the captured
// point exactly. The test drives a predictor, captures it, keeps mutating
// it, then restores both it and a fresh instance from the snapshot and
// requires the two to agree on every subsequent prediction.
func TestCheckpointRoundTripAllRegisteredConfigs(t *testing.T) {
	for _, spec := range AllConfigs() {
		p := spec.Build()
		seq := uint64(0x243f6a8885a308d3)
		for i := 0; i < 2048; i++ {
			drive(p, i, &seq)
		}

		snap, err := CaptureState(p)
		if err != nil {
			t.Fatalf("%s (%T): CaptureState: %v", spec.Name, p, err)
		}
		seqAt := seq

		// Keep mutating the live predictor: a shallow snapshot would alias
		// this and diverge after restore.
		for i := 0; i < 2048; i++ {
			drive(p, i, &seq)
		}

		q := spec.Build()
		if err := RestoreState(p, snap); err != nil {
			t.Fatalf("%s: RestoreState(live): %v", spec.Name, err)
		}
		if err := RestoreState(q, snap); err != nil {
			t.Fatalf("%s: RestoreState(fresh): %v", spec.Name, err)
		}

		seqP, seqQ := seqAt, seqAt
		for i := 0; i < 4096; i++ {
			pp := drive(p, i, &seqP)
			pq := drive(q, i, &seqQ)
			if pp != pq {
				t.Fatalf("%s: predictions diverged at step %d after restore: %+v vs %+v (snapshot not bit-exact or not deep)",
					spec.Name, i, pp, pq)
			}
		}
	}
}

// unknownPredictor is a Predictor without the Checkpointer capability,
// standing in for an external implementation.
type unknownPredictor struct{}

func (unknownPredictor) Name() string { return "unknown" }
func (unknownPredictor) Lookup(pc uint64) Prediction {
	return Prediction{PC: pc, Index0: -1, Index1: -1, Index2: -1, BHTIdx: -1}
}
func (unknownPredictor) Unwind(*Prediction)         {}
func (unknownPredictor) Redirect(*Prediction, bool) {}
func (unknownPredictor) Update(*Prediction, bool)   {}
func (unknownPredictor) Tables() []TableSpec        { return nil }
func (unknownPredictor) TotalBits() int             { return 0 }
func (unknownPredictor) Reset()                     {}

// CaptureState/RestoreState on a predictor without the Checkpointer
// capability must fail with an error naming the concrete type and the
// capability to implement, not panic.
func TestCaptureStateUnknownTypeError(t *testing.T) {
	p := unknownPredictor{}
	_, err := CaptureState(p)
	if err == nil {
		t.Fatal("CaptureState on a non-Checkpointer succeeded, want error")
	}
	for _, want := range []string{"unknownPredictor", "Checkpointer", "CaptureState", "RestoreState"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("CaptureState error %q does not mention %q", err, want)
		}
	}
	if err := RestoreState(p, State{}); err == nil {
		t.Fatal("RestoreState on a non-Checkpointer succeeded, want error")
	} else if !strings.Contains(err.Error(), "Checkpointer") {
		t.Errorf("RestoreState error %q does not name the capability", err)
	}
}
