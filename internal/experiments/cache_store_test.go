package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/power"
	"bpredpower/internal/workload"
)

// fakeStore is an in-memory ActivityStore that records its traffic,
// standing in for internal/resultstore so the layering contract can be
// tested without disk. Its RunStore methods exist only because
// RunCache.Store is typed RunStore; the cache must never call them.
type fakeStore struct {
	mu    sync.Mutex
	m     map[string]ActivityRecord
	loads int
	saves int
}

func newFakeStore() *fakeStore { return &fakeStore{m: map[string]ActivityRecord{}} }

func (f *fakeStore) key(bench string, opt cpu.Options, rc RunConfig) string {
	return fmt.Sprintf("%s|%#v|%#v", bench, opt, rc)
}

func (f *fakeStore) Load(string, cpu.Options, RunConfig) (Run, bool) {
	panic("run cache called RunStore.Load")
}

func (f *fakeStore) Save(string, cpu.Options, RunConfig, Run) {
	panic("run cache called RunStore.Save")
}

func (f *fakeStore) LoadActivity(bench string, opt cpu.Options, rc RunConfig) (ActivityRecord, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	rec, ok := f.m[f.key(bench, opt, rc)]
	return rec, ok
}

func (f *fakeStore) SaveActivity(bench string, opt cpu.Options, rc RunConfig, rec ActivityRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.saves++
	f.m[f.key(bench, opt, rc)] = rec
}

func (f *fakeStore) counts() (loads, saves int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.loads, f.saves
}

// fakeRecord is a small activity record for cache-contract tests that never
// fold it.
func fakeRecord(bench string) ActivityRecord {
	return ActivityRecord{
		Run:      Run{Benchmark: bench, Machine: "m", Accuracy: 0.875, Committed: 60000},
		Activity: power.Activity{Cycles: 9, Units: []power.UnitActivity{{Name: "u", ActiveCycles: 4, Reads: 5}}},
	}
}

// TestStoreWriteThroughAndWarmStart is the layering contract end to end:
// a cold cache over an empty store computes once and writes through; a
// second cold cache over the same store answers from it without computing;
// and the loaded record is identical to the computed one.
func TestStoreWriteThroughAndWarmStart(t *testing.T) {
	opt := cpu.Options{Predictor: bpred.Bim4k}
	store := newFakeStore()

	c1 := NewRunCache(8)
	c1.Store = store
	computes := 0
	compute := func(context.Context) (ActivityRecord, error) {
		computes++
		return fakeRecord("164.gzip"), nil
	}
	want, err := c1.DoActivity(context.Background(), "164.gzip", opt, Quick, compute)
	if err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	if loads, saves := store.counts(); loads != 1 || saves != 1 {
		t.Fatalf("store traffic = %d loads / %d saves, want 1/1", loads, saves)
	}

	// Same cache again: memory hit, the store is not consulted a second time.
	if _, err := c1.DoActivity(context.Background(), "164.gzip", opt, Quick, compute); err != nil {
		t.Fatal(err)
	}
	if computes != 1 {
		t.Fatalf("memory hit recomputed: computes = %d", computes)
	}
	if loads, _ := store.counts(); loads != 1 {
		t.Fatalf("memory hit consulted the store: loads = %d", loads)
	}

	// A fresh cache over the same store: store hit, no compute.
	c2 := NewRunCache(8)
	c2.Store = store
	got, err := c2.DoActivity(context.Background(), "164.gzip", opt, Quick, func(context.Context) (ActivityRecord, error) {
		t.Fatal("warm-start consulted compute")
		return ActivityRecord{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store round trip changed the record:\n got %+v\nwant %+v", got, want)
	}
	cs := c2.Stats()
	if cs.StoreHits != 1 || cs.StoreMisses != 0 {
		t.Fatalf("warm cache stats = %+v, want 1 store hit", cs)
	}
	if cs1 := c1.Stats(); cs1.StoreHits != 0 || cs1.StoreMisses != 1 {
		t.Fatalf("cold cache stats = %+v, want 1 store miss", cs1)
	}
}

// TestStoreHitSkipsHooksAndGate: answering from the store runs no
// simulation, so lifecycle hooks must not fire and no Gate slot may be
// taken (a store hit with a full Gate must not block).
func TestStoreHitSkipsHooksAndGate(t *testing.T) {
	opt := cpu.Options{Predictor: bpred.Bim4k}
	store := newFakeStore()
	store.SaveActivity("164.gzip", opt, Quick, fakeRecord("164.gzip"))

	c := NewRunCache(8)
	c.Store = store
	c.Gate = make(chan struct{}, 1)
	c.Gate <- struct{}{} // saturate: any Gate acquisition would block forever
	c.Hooks = RunCacheHooks{
		BeforeRun: func(context.Context) { t.Error("BeforeRun fired on a store hit") },
		AfterRun:  func(Run, error) { t.Error("AfterRun fired on a store hit") },
	}
	if _, err := c.DoActivity(context.Background(), "164.gzip", opt, Quick, func(context.Context) (ActivityRecord, error) {
		t.Fatal("store hit consulted compute")
		return ActivityRecord{}, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreErrorNotSaved: a failed compute (cancellation) must not be
// written through — the store only ever holds complete records.
func TestStoreErrorNotSaved(t *testing.T) {
	opt := cpu.Options{Predictor: bpred.Bim4k}
	store := newFakeStore()
	c := NewRunCache(8)
	c.Store = store

	wantErr := errors.New("canceled mid-run")
	if _, err := c.DoActivity(context.Background(), "164.gzip", opt, Quick, func(context.Context) (ActivityRecord, error) {
		return ActivityRecord{}, wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if _, saves := store.counts(); saves != 0 {
		t.Fatalf("errored compute was saved: saves = %d", saves)
	}
	if len(store.m) != 0 {
		t.Fatalf("store holds %d entries after an errored compute", len(store.m))
	}
}

// TestStoreSingleflightShares: waiters on an inflight key share the store
// hit exactly as they would a computed record — one load, not one per
// caller.
func TestStoreSingleflightShares(t *testing.T) {
	opt := cpu.Options{Predictor: bpred.Bim4k}
	store := newFakeStore()
	store.SaveActivity("164.gzip", opt, Quick, fakeRecord("164.gzip"))

	// gatedStore delays the leader's load until both callers are in
	// DoActivity.
	release := make(chan struct{})
	gs := &gatedStore{fakeStore: store, release: release}
	c := NewRunCache(8)
	c.Store = gs

	var wg sync.WaitGroup
	results := make([]ActivityRecord, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.DoActivity(context.Background(), "164.gzip", opt, Quick,
				func(context.Context) (ActivityRecord, error) {
					t.Error("compute ran despite a store entry")
					return ActivityRecord{}, nil
				})
		}(i)
	}
	close(release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("callers disagree: %+v vs %+v", results[i], results[0])
		}
	}
	if loads, _ := store.counts(); loads != 1 {
		t.Fatalf("store loaded %d times for one singleflighted key", loads)
	}
}

// gatedStore blocks LoadActivity until released, letting the singleflight
// test pin both callers behind one inflight entry.
type gatedStore struct {
	*fakeStore
	release chan struct{}
}

func (g *gatedStore) LoadActivity(bench string, opt cpu.Options, rc RunConfig) (ActivityRecord, bool) {
	<-g.release
	return g.fakeStore.LoadActivity(bench, opt, rc)
}

// The replica contract for repricing: replica A simulates one base run and
// writes the activity record through; replica B (a second cache over the
// same store) serves every pricing variant by repricing the stored record,
// with zero simulations of its own and byte-identical results.
func TestActivityStoreWriteThroughAcrossReplicas(t *testing.T) {
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{WarmupInsts: 2000, MeasureInsts: 4000}
	store := newFakeStore()
	variants := []cpu.Options{
		{Predictor: bpred.Hybrid1},
		{Predictor: bpred.Hybrid1, BankedPredictor: true},
		{Predictor: bpred.Hybrid1, ClockGating: power.CC0},
		{Predictor: bpred.Hybrid1, BankedPredictor: true, OldArrayModel: true, ClockGating: power.CC2},
	}

	runsOn := func(c *RunCache, sims *int) []Run {
		h := NewHarness(rc)
		h.Parallel = 1
		h.Cache = c
		var out []Run
		for _, opt := range variants {
			out = append(out, h.Simulate(bench, opt))
		}
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	a := NewRunCache(8)
	a.Store = store
	simsA := 0
	a.Hooks.BeforeRun = func(context.Context) { simsA++ }
	got := runsOn(a, &simsA)
	if simsA != 1 {
		t.Fatalf("replica A ran %d simulations, want 1", simsA)
	}
	if _, saves := store.counts(); saves != 1 {
		t.Fatalf("activity write-through: %d saves, want 1", saves)
	}

	b := NewRunCache(8)
	b.Store = store
	simsB := 0
	b.Hooks.BeforeRun = func(context.Context) { simsB++ }
	got2 := runsOn(b, &simsB)
	if simsB != 0 {
		t.Fatalf("replica B ran %d simulations, want 0 (should reprice from the store)", simsB)
	}
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("variant %d: replica B's repriced run differs:\n A %+v\n B %+v", i, got[i], got2[i])
		}
	}
	bs := b.Stats()
	if bs.StoreHits == 0 {
		t.Fatalf("replica B stats = %+v, want store hits", bs)
	}
}
