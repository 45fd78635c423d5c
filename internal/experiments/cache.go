package experiments

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"unsafe"

	"bpredpower/internal/cpu"
	"bpredpower/internal/program"
	"bpredpower/internal/workload"
)

// RunCache is a concurrency-safe, bounded memo of activity records, and the
// only memo of runs: every Harness resolves its Runs through one (NewHarness
// gives each its own, unbounded). A server builds one RunCache at startup,
// resolves points on it directly with Resolve (or hands it to a Harness per
// figure request), and gets
//
//   - singleflight: concurrent demand for the same (benchmark, execution
//     options, run-config) key runs exactly one simulation — later arrivals
//     block on the leader's completion (or their own context) and share its
//     record;
//   - a bounded LRU: completed entries beyond MaxEntries are evicted least
//     recently used first, with approximate byte accounting exposed through
//     Stats for the /metrics endpoint;
//   - cancellation hygiene: a compute that returns an error (in practice
//     ctx.Err()) is removed rather than cached, so the cache never holds a
//     half-written or canceled entry and the next request simply retries.
//
// Every Run a harness reports is the base Run of one of these records or a
// Reprice fold of one, so the cache never holds a Run on its own.
//
// Program images are memoized separately (Program) because they are shared
// across every options variant of a benchmark and are never evicted — there
// are at most len(workload.All()) of them.
type RunCache struct {
	// Gate, when non-nil, is a counting semaphore bounding how many
	// simulations may run concurrently across every harness sharing the
	// cache (capacity = cap(Gate)). Acquisition respects the caller's
	// context, so a canceled request stops waiting for a slot.
	Gate chan struct{}
	// Hooks observe compute lifecycle; see RunCacheHooks.
	Hooks RunCacheHooks
	// Store, when it also implements ActivityStore, is a second, persistent
	// layer under the in-memory LRU. A memory miss consults it before
	// simulating, and every successful compute is written through, so
	// restarts and replicas sharing one store start warm. Store loads do
	// not fire Hooks (no simulation ran) and do not consume a Gate slot.
	// Its RunStore methods are never called.
	Store RunStore

	mu         sync.Mutex
	maxEntries int
	entries    map[cacheKey]*cacheEntry
	lru        *list.List // of *cacheEntry; front = most recently used
	hits       uint64
	misses     uint64
	evictions  uint64
	storeHits  uint64
	storeMiss  uint64
	folds      uint64
	bytes      int64

	progMu sync.Mutex
	progs  map[string]*progEntry
}

// RunStore is the persistent layer's Run interface, keyed by benchmark name,
// the full comparable cpu.Options, and the RunConfig. The cache no longer
// stores Runs — it persists activity records through ActivityStore — but
// RunCache.Store keeps this type so existing store wrappers still fit.
// internal/resultstore provides the on-disk implementation.
type RunStore interface {
	Load(bench string, opt cpu.Options, rc RunConfig) (Run, bool)
	Save(bench string, opt cpu.Options, rc RunConfig, r Run)
}

// ActivityStore is the persistent plane for activity records, implemented
// by internal/resultstore. A RunCache whose Store also implements it writes
// every computed record through and answers misses from disk — replicas
// sharing one store reprice each other's simulations instead of re-running
// them. Implementations must be safe for concurrent use and must only ever
// return records previously saved for the identical key.
type ActivityStore interface {
	LoadActivity(bench string, opt cpu.Options, rc RunConfig) (ActivityRecord, bool)
	SaveActivity(bench string, opt cpu.Options, rc RunConfig, rec ActivityRecord)
}

// RunCacheHooks are optional instrumentation points. BeforeRun runs on the
// computing goroutine immediately before a cache-miss simulation starts
// (after the Gate slot is held) with that simulation's context; AfterRun
// runs when it finishes, successfully or not, with the record's base Run.
// The service layer uses them for worker-occupancy and throughput metrics;
// tests use them to observe cancellation and count singleflight computes.
type RunCacheHooks struct {
	BeforeRun func(ctx context.Context)
	AfterRun  func(r Run, err error)
}

// cacheKey identifies one simulation. cpu.Options holds only comparable
// value types, so using it verbatim makes the key complete by construction:
// any Options field that changes simulation behavior — including ones a
// hand-rolled label could forget, like ClockGating — yields a distinct key.
// The RunConfig is part of it: a quick and a full run of the same machine
// point are different results.
type cacheKey struct {
	bench string
	opt   cpu.Options
	rc    RunConfig
}

type cacheEntry struct {
	key  cacheKey
	done chan struct{} // closed when rec/err are final
	rec  ActivityRecord
	err  error
	size int64
	elem *list.Element // nil while inflight or after eviction
}

type progEntry struct {
	done chan struct{}
	p    *program.Program
}

// CacheStats is a point-in-time snapshot of cache occupancy and traffic.
type CacheStats struct {
	// Hits/Misses count activity-record lookups (one per Resolve, and one
	// per execution key a Prefetch plan names): hits were answered from
	// memory, misses went to the store or ran the one base simulation.
	Hits, Misses, Evictions uint64
	// StoreHits/StoreMisses count memory misses answered by (or falling
	// through) the persistent Store layer; both stay zero without one.
	StoreHits, StoreMisses uint64
	// RepriceFolds counts pricing variants produced by closed-form folding
	// instead of simulation.
	RepriceFolds uint64
	Entries      int   // completed, resident records
	Inflight     int   // computes in progress
	Bytes        int64 // approximate resident record bytes
	Programs     int   // memoized program images
}

// NewRunCache builds a cache bounded to maxEntries completed records
// (maxEntries <= 0 means unbounded).
func NewRunCache(maxEntries int) *RunCache {
	return &RunCache{
		maxEntries: maxEntries,
		entries:    map[cacheKey]*cacheEntry{},
		lru:        list.New(),
		progs:      map[string]*progEntry{},
	}
}

// DoActivity returns the memoized ActivityRecord of an execution key (bench,
// execOpt, rc), computing it via compute — one full base simulation — on a
// miss. Concurrent calls for the same key share one compute; callers whose
// ctx ends while waiting get ctx.Err(). A compute error is returned to the
// leader and every waiter, and the entry is dropped so a later call retries.
// The one exception is the leader's own cancellation or deadline: a waiter
// whose ctx is still live does not inherit it, but retries at once, joining
// a newer compute or leading one itself.
// The callers' pricing-variant folds never pass through here — only the one
// simulation per execution key does.
func (c *RunCache) DoActivity(ctx context.Context, bench string, opt cpu.Options, rc RunConfig, compute func(context.Context) (ActivityRecord, error)) (ActivityRecord, error) {
	key := cacheKey{bench, opt, rc}
	c.mu.Lock()
	for {
		e, ok := c.entries[key]
		if !ok {
			break
		}
		select {
		case <-e.done:
			// Completed entries in the map never hold errors (errored ones
			// are deleted before done closes), so this is a hit.
			c.hits++
			c.lru.MoveToFront(e.elem)
			rec := e.rec
			c.mu.Unlock()
			return rec, nil
		default:
		}
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return ActivityRecord{}, ctx.Err()
		}
		if e.err != nil {
			if isContextErr(e.err) && ctx.Err() == nil {
				c.mu.Lock()
				continue
			}
			return ActivityRecord{}, e.err
		}
		c.mu.Lock()
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		return e.rec, nil
	}
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	// Memory miss: consult the persistent layer before simulating. A store
	// hit finalizes the inflight entry exactly like a compute would, so
	// waiters blocked on e.done share it; no hooks fire and no Gate slot is
	// taken, because no simulation runs.
	as, _ := c.Store.(ActivityStore)
	fromStore := false
	var rec ActivityRecord
	var err error
	if as != nil {
		if r, ok := as.LoadActivity(bench, opt, rc); ok {
			c.count(func() { c.storeHits++ })
			rec, fromStore = r, true
		} else {
			c.count(func() { c.storeMiss++ })
		}
	}
	if !fromStore {
		rec, err = c.compute(ctx, compute)
	}

	c.mu.Lock()
	e.rec, e.err = rec, err
	if err != nil {
		delete(c.entries, key)
	} else {
		e.size = activityBytes(rec)
		c.bytes += e.size
		e.elem = c.lru.PushFront(e)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.done)
	if err == nil && !fromStore && as != nil {
		// Write-through after waking waiters: persistence is off the
		// response path, and an interrupted write just means a recompute.
		as.SaveActivity(bench, opt, rc, rec)
	}
	return rec, err
}

// Resolve returns the Run of benchmark b under opt at rc: it splits opt into
// its execution options and pricing key, gets the execution key's activity
// record through DoActivity (one simulation on a miss), and returns the
// record's base Run or, for a pricing variant, a Reprice fold of it, counted
// in RepriceFolds. It is the one path from a point to its Run: a Harness's
// Simulate calls it, and a server's workers call it directly, one point
// each, sharing simulations through the singleflight.
func (c *RunCache) Resolve(ctx context.Context, b workload.Benchmark, opt cpu.Options, rc RunConfig) (Run, error) {
	execOpt, pk := SplitOptions(opt)
	rec, err := c.activity(ctx, b, execOpt, rc)
	if err != nil {
		return Run{}, err
	}
	if pk.IsBase() {
		return rec.Run, nil
	}
	r, err := Reprice(rec, opt)
	if err != nil {
		return Run{}, err
	}
	c.count(func() { c.folds++ })
	return r, nil
}

// activity resolves the activity record of an execution key through
// DoActivity; a miss runs one full base simulation.
func (c *RunCache) activity(ctx context.Context, b workload.Benchmark, execOpt cpu.Options, rc RunConfig) (ActivityRecord, error) {
	return c.DoActivity(ctx, b.Name, execOpt, rc, func(cctx context.Context) (ActivityRecord, error) {
		return simulate(cctx, c.Program(b), b, execOpt, rc, chunkInsts)
	})
}

// isContextErr reports whether err is a context's cancellation or deadline.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// count runs a counter mutation under the lock.
func (c *RunCache) count(fn func()) {
	c.mu.Lock()
	fn()
	c.mu.Unlock()
}

// compute runs one cache-miss simulation: acquire a Gate slot (bounded
// concurrency), fire the hooks, call through.
func (c *RunCache) compute(ctx context.Context, fn func(context.Context) (ActivityRecord, error)) (ActivityRecord, error) {
	if c.Gate != nil {
		select {
		case c.Gate <- struct{}{}:
			defer func() { <-c.Gate }()
		case <-ctx.Done():
			return ActivityRecord{}, ctx.Err()
		}
	}
	if h := c.Hooks.BeforeRun; h != nil {
		h(ctx)
	}
	rec, err := fn(ctx)
	if h := c.Hooks.AfterRun; h != nil {
		h(rec.Run, err)
	}
	return rec, err
}

// evictLocked drops least-recently-used completed entries until the bound
// holds. Inflight entries are not on the LRU list and are never evicted.
func (c *RunCache) evictLocked() {
	if c.maxEntries <= 0 {
		return
	}
	for c.lru.Len() > c.maxEntries {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// Program returns the (memoized, singleflighted) program image of a
// benchmark. Generation is deterministic and immutable, so every harness can
// share one image.
func (c *RunCache) Program(b workload.Benchmark) *program.Program {
	c.progMu.Lock()
	if e, ok := c.progs[b.Name]; ok {
		c.progMu.Unlock()
		<-e.done
		return e.p
	}
	e := &progEntry{done: make(chan struct{})}
	c.progs[b.Name] = e
	c.progMu.Unlock()
	e.p = b.Program()
	close(e.done)
	return e.p
}

// Stats snapshots cache counters for observability.
func (c *RunCache) Stats() CacheStats {
	c.mu.Lock()
	s := CacheStats{
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		StoreHits:    c.storeHits,
		StoreMisses:  c.storeMiss,
		RepriceFolds: c.folds,
		Entries:      c.lru.Len(),
		Inflight:     len(c.entries) - c.lru.Len(),
		Bytes:        c.bytes,
	}
	c.mu.Unlock()
	c.progMu.Lock()
	s.Programs = len(c.progs)
	c.progMu.Unlock()
	return s
}

// activityBytes approximates the resident size of one cached record: the
// Run with its string payloads, the key's benchmark name, the per-unit
// counter slice, and the unit-name strings.
func activityBytes(rec ActivityRecord) int64 {
	r := rec.Run
	n := int64(unsafe.Sizeof(rec)) + int64(unsafe.Sizeof(cacheKey{})) +
		int64(2*len(r.Benchmark)+len(r.Machine))
	for _, u := range rec.Activity.Units {
		n += int64(unsafe.Sizeof(u)) + int64(len(u.Name))
	}
	return n
}
