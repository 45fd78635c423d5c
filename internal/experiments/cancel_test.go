package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/workload"
)

// TestForEachCtxCancelSerial checks the single-worker path stops exactly at
// the cancellation point: the context is consulted before every call, so a
// cancel fired inside call k means calls k+1..n never run.
func TestForEachCtxCancelSerial(t *testing.T) {
	const n, stopAt = 100, 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	err := ForEachCtx(ctx, 1, n, func(i int) {
		calls++
		if calls == stopAt {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != stopAt {
		t.Errorf("serial ForEachCtx ran %d calls after cancel at call %d", calls, stopAt)
	}
}

// TestForEachCtxCancelParallel checks cancellation latency is bounded by one
// job per worker: once cancel has returned, each worker can still finish at
// most the one call it claimed before its next context check, so at most
// workers calls start after that point. Calls that start while cancel is
// still running are not counted — they are scheduling, not latency.
func TestForEachCtxCancelParallel(t *testing.T) {
	const n, workers = 10000, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls, afterCancel atomic.Int64
	var canceled atomic.Bool
	err := ForEachCtx(ctx, workers, n, func(i int) {
		if canceled.Load() {
			afterCancel.Add(1)
			return
		}
		if calls.Add(1) == 1 {
			cancel()
			canceled.Store(true)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := afterCancel.Load(); got > workers {
		t.Errorf("parallel ForEachCtx started %d calls after cancel returned (bound %d)", got, workers)
	}
}

// TestForEachCtxPreCanceled checks a context canceled before the call runs
// nothing at all, serial and parallel.
func TestForEachCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		calls := 0
		var mu sync.Mutex
		err := ForEachCtx(ctx, workers, 50, func(i int) {
			mu.Lock()
			calls++
			mu.Unlock()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if calls != 0 {
			t.Errorf("workers=%d: pre-canceled ForEachCtx still ran %d calls", workers, calls)
		}
	}
}

// TestPrefetchCtxCancelResumes is the end-to-end cancellation regression: a
// prefetch canceled mid-flight must report the context error, leave the memo
// with only fully completed runs, and be resumable — a retry on the same
// harness must produce runs identical to an uninterrupted reference harness.
func TestPrefetchCtxCancelResumes(t *testing.T) {
	rc := RunConfig{WarmupInsts: 2000, MeasureInsts: 4000}
	b, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{b, cpu.Options{Predictor: bpred.Bim4k}},
		{b, cpu.Options{Predictor: bpred.Gsh16k12}},
		{b, cpu.Options{Predictor: bpred.Bim4k, BankedPredictor: true}},
		{b, cpu.Options{Predictor: bpred.Gsh16k12, BankedPredictor: true}},
	}

	// Reference: the same plan, uninterrupted.
	ref := NewHarness(rc)
	ref.Parallel = 1
	ref.Prefetch(jobs)
	if ref.Err() != nil {
		t.Fatal(ref.Err())
	}

	// Cancel after the first completed simulation, via the cache hook.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cache := NewRunCache(0)
	var finished atomic.Int64
	cache.Hooks.AfterRun = func(r Run, err error) {
		if finished.Add(1) == 1 {
			cancel()
		}
	}
	h := NewHarness(rc)
	h.Parallel = 1
	h.Cache = cache
	if err := h.PrefetchCtx(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled PrefetchCtx returned %v, want context.Canceled", err)
	}
	if got := len(h.runs); got >= len(jobs) {
		t.Fatalf("canceled prefetch memoized all %d runs; cancellation never took effect", got)
	}
	for k, r := range h.runs {
		if r == (Run{}) {
			t.Fatalf("memo holds a zero run for %v: half-written entry survived cancellation", k)
		}
	}

	// Retry with a live context on the same harness: it finishes the
	// remainder and every run matches the uninterrupted reference.
	if err := h.PrefetchCtx(context.Background(), jobs); err != nil {
		t.Fatalf("resumed PrefetchCtx: %v", err)
	}
	if len(h.runs) != len(ref.runs) {
		t.Fatalf("resumed harness has %d runs, reference has %d", len(h.runs), len(ref.runs))
	}
	for k, want := range ref.runs {
		if got := h.runs[k]; got != want {
			t.Errorf("run %v differs after cancel+resume:\n got %+v\nwant %+v", k, got, want)
		}
	}
}

// TestSimulateCanceledNotMemoized checks a canceled Simulate returns a zero
// Run, records the error on the harness, and leaves the miss a miss: the
// same harness with a live context computes and memoizes normally afterward.
func TestSimulateCanceledNotMemoized(t *testing.T) {
	b, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	opt := cpu.Options{Predictor: bpred.Bim4k}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	h := NewHarness(RunConfig{WarmupInsts: 2000, MeasureInsts: 4000})
	h.Ctx = ctx
	if r := h.Simulate(b, opt); r != (Run{}) {
		t.Errorf("canceled Simulate returned a non-zero run: %+v", r)
	}
	if !errors.Is(h.Err(), context.Canceled) {
		t.Errorf("harness error = %v, want context.Canceled", h.Err())
	}
	if len(h.runs) != 0 {
		t.Fatalf("canceled Simulate memoized %d runs", len(h.runs))
	}

	h.Ctx = nil
	r := h.Simulate(b, opt)
	if r == (Run{}) {
		t.Fatal("retry after cancellation still returned a zero run")
	}
	if len(h.runs) != 1 {
		t.Errorf("retry memoized %d runs, want 1", len(h.runs))
	}
}

// TestRunCacheSingleflight checks concurrent demand for one key runs the
// compute exactly once and every caller sees the same result.
func TestRunCacheSingleflight(t *testing.T) {
	const callers = 8
	cache := NewRunCache(0)
	var computes atomic.Int64
	var start, done sync.WaitGroup
	start.Add(callers)
	done.Add(callers)
	results := make([]ActivityRecord, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			start.Wait() // maximize overlap
			results[i], errs[i] = cache.DoActivity(context.Background(), "bench", cpu.Options{}, Quick,
				func(context.Context) (ActivityRecord, error) {
					computes.Add(1)
					time.Sleep(10 * time.Millisecond) // hold the entry inflight
					return fakeRecord("bench"), nil
				})
		}(i)
	}
	done.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("%d callers ran %d computes, want 1 (singleflight)", callers, n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("caller %d got %+v, caller 0 got %+v", i, results[i], results[0])
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %d misses / %d hits, want 1 / %d", st.Misses, st.Hits, callers-1)
	}
}

// TestRunCacheErrorNotCached checks an errored compute is dropped: every
// concurrent waiter sees the error, and the next call retries the compute.
func TestRunCacheErrorNotCached(t *testing.T) {
	cache := NewRunCache(0)
	sentinel := errors.New("compute failed")
	var computes atomic.Int64
	if _, err := cache.DoActivity(context.Background(), "bench", cpu.Options{}, Quick,
		func(context.Context) (ActivityRecord, error) {
			computes.Add(1)
			return ActivityRecord{}, sentinel
		}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sentinel", err)
	}
	r, err := cache.DoActivity(context.Background(), "bench", cpu.Options{}, Quick,
		func(context.Context) (ActivityRecord, error) {
			computes.Add(1)
			return fakeRecord("bench"), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if r.Run.Benchmark != "bench" {
		t.Errorf("retry returned %+v", r)
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("computes = %d, want 2 (error must not be cached)", n)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Errorf("cache holds %d entries, want 1", st.Entries)
	}
}

// TestRunCacheLeaderCancelNotInherited checks a waiter does not inherit the
// leader's cancellation: when the leader's context ends mid-compute, a
// waiter whose own context is live retries, computes, and gets the record.
func TestRunCacheLeaderCancelNotInherited(t *testing.T) {
	cache := NewRunCache(0)
	var computes atomic.Int64
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := cache.DoActivity(leaderCtx, "bench", cpu.Options{}, Quick,
			func(ctx context.Context) (ActivityRecord, error) {
				computes.Add(1)
				close(started)
				<-ctx.Done()
				return ActivityRecord{}, ctx.Err()
			})
		leaderErr <- err
	}()
	<-started
	waiterDone := make(chan struct{})
	var rec ActivityRecord
	var err error
	go func() {
		defer close(waiterDone)
		rec, err = cache.DoActivity(context.Background(), "bench", cpu.Options{}, Quick,
			func(context.Context) (ActivityRecord, error) {
				computes.Add(1)
				return fakeRecord("bench"), nil
			})
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block on the inflight entry
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	<-waiterDone
	if err != nil {
		t.Fatalf("waiter inherited the leader's error: %v", err)
	}
	if rec.Run.Benchmark != "bench" {
		t.Errorf("waiter got %+v", rec)
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("computes = %d, want 2 (the canceled leader's, then the waiter's)", n)
	}
	if st := cache.Stats(); st.Misses != 2 || st.Entries != 1 || st.Inflight != 0 {
		t.Errorf("stats = %+v, want 2 misses, 1 entry, none in flight", st)
	}
}

// TestRunCacheLRUEviction checks the entry bound: with MaxEntries=2, a third
// key evicts the least recently used one, byte accounting follows, and the
// evicted key recomputes on its next request.
func TestRunCacheLRUEviction(t *testing.T) {
	cache := NewRunCache(2)
	var computes atomic.Int64
	get := func(bench string) ActivityRecord {
		t.Helper()
		r, err := cache.DoActivity(context.Background(), bench, cpu.Options{}, Quick,
			func(context.Context) (ActivityRecord, error) {
				computes.Add(1)
				return fakeRecord(bench), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	get("a")
	get("b")
	get("a") // refresh a: b becomes LRU
	get("c") // evicts b
	st := cache.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after third key: %d evictions, %d entries; want 1, 2", st.Evictions, st.Entries)
	}
	if st.Bytes <= 0 {
		t.Errorf("byte accounting is %d after evictions, want > 0", st.Bytes)
	}
	before := computes.Load()
	get("a") // still resident: no compute
	get("b") // evicted: recomputes
	if n := computes.Load() - before; n != 1 {
		t.Errorf("%d computes after eviction round-trip, want 1 (only the evicted key)", n)
	}
}

// TestRunCacheGateRespectsContext checks a caller canceled while waiting for
// a Gate slot gives up with ctx.Err() instead of queueing a simulation.
func TestRunCacheGateRespectsContext(t *testing.T) {
	cache := NewRunCache(0)
	cache.Gate = make(chan struct{}, 1)
	cache.Gate <- struct{}{} // occupy the only slot
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := cache.DoActivity(ctx, "bench", cpu.Options{}, Quick,
		func(context.Context) (ActivityRecord, error) {
			t.Error("compute ran despite a full gate and canceled context")
			return ActivityRecord{}, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("canceled gate wait left %d entries", st.Entries)
	}
}
