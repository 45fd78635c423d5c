package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/gating"
	"bpredpower/internal/workload"
)

// TestChunkedRunBitEqual checks that the chunk length simulate advances a
// phase by never shows in a result: chunk lengths that split both phases
// unevenly into 2, 4 and 7 pieces give a Run (as float64 bits) and an
// Activity equal to the one-chunk run.
func TestChunkedRunBitEqual(t *testing.T) {
	rc := RunConfig{WarmupInsts: 7001, MeasureInsts: 7003}
	b, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	p := b.Program()
	for _, opt := range []cpu.Options{
		{Predictor: bpred.Hybrid1, BankedPredictor: true},
		{Predictor: bpred.TAGE64k},
		{Predictor: bpred.Gsh16k12, Gating: gating.Config{Enabled: true, Threshold: 1, Estimator: gating.EstimatorJRS}},
	} {
		want, err := simulate(context.Background(), p, b, opt, rc, rc.MeasureInsts)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			chunk  uint64
			pieces uint64
		}{{3502, 2}, {1751, 4}, {1001, 7}} {
			for _, n := range []uint64{rc.WarmupInsts, rc.MeasureInsts} {
				if pieces := (n + tc.chunk - 1) / tc.chunk; pieces != tc.pieces || n%tc.chunk == 0 {
					t.Fatalf("chunk %d splits a %d-instruction phase into %d pieces, want %d uneven ones", tc.chunk, n, pieces, tc.pieces)
				}
			}
			got, err := simulate(context.Background(), p, b, opt, rc, tc.chunk)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range runDiff(got.Run, want.Run) {
				t.Errorf("%s, chunk %d: %s", machineLabel(opt), tc.chunk, d)
			}
			if !reflect.DeepEqual(got.Activity, want.Activity) {
				t.Errorf("%s, chunk %d: activity differs from the one-chunk run", machineLabel(opt), tc.chunk)
			}
		}
	}
}

// errAfterCtx is a context whose Err starts reporting context.Canceled on
// its failAt-th call, so a test can cancel a simulation at an exact chunk
// check. calls counts every Err call.
type errAfterCtx struct {
	context.Context
	failAt int64
	calls  atomic.Int64
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) >= c.failAt {
		return context.Canceled
	}
	return nil
}

// TestChunkedCancellation checks that cancellation stops a phase at the
// next chunk check: a warm-up of four chunks whose context fails on its
// second check runs one chunk, returns context.Canceled with a zero record,
// leaves nothing in the cache, and consults the context no further — every
// chunk is preceded by a check, so no further chunk ran.
func TestChunkedCancellation(t *testing.T) {
	const chunk = 1000
	rc := RunConfig{WarmupInsts: 4 * chunk, MeasureInsts: 4 * chunk}
	b, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	opt := cpu.Options{Predictor: bpred.Bim4k}
	p := b.Program()

	ctx := &errAfterCtx{Context: context.Background(), failAt: 2}
	cache := NewRunCache(0)
	rec, err := cache.DoActivity(ctx, b.Name, opt, rc, func(cctx context.Context) (ActivityRecord, error) {
		return simulate(cctx, p, b, opt, rc, chunk)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(rec, ActivityRecord{}) {
		t.Errorf("canceled simulation returned a non-zero record: %+v", rec.Run)
	}
	if st := cache.Stats(); st.Entries != 0 || st.Inflight != 0 {
		t.Errorf("canceled simulation left %d entries and %d inflight in the cache", st.Entries, st.Inflight)
	}
	if n := ctx.calls.Load(); n != ctx.failAt {
		t.Errorf("context checked %d times, want %d: the run went on past the failed chunk check", n, ctx.failAt)
	}
}
