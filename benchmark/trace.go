package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"bpredpower/internal/experiments"
	"bpredpower/internal/workload"
)

// span is one timed interval at a layer boundary. Times are nanoseconds since
// the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// Simulation spans only: the run's identity and work.
	Bench     string `json:"bench,omitempty"`
	Machine   string `json:"machine,omitempty"`
	Insts     uint64 `json:"insts,omitempty"` // warm-up plus measured instructions
	Fetched   uint64 `json:"fetched,omitempty"`
	Committed uint64 `json:"committed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// simKey names a simulation the way its Run reports it.
type simKey struct{ bench, machine string }

// openSpan is an in-flight span that simulations can be parented to: an HTTP
// request, whose body names the simulations it may cause, or a figure, which
// may cause any.
type openSpan struct {
	span
	keys    map[simKey]bool // nil: any simulation
	warmup  uint64          // warm-up instructions of the simulations it causes
	pending []int64         // BeforeRun times not yet paired with an AfterRun
}

// tracer keeps spans in memory; write dumps them once the run ends. Spans
// come only from the benchmark's own calls: HTTP middleware around the
// service handler, figure calls, and RunCache hooks.
type tracer struct {
	epoch time.Time

	mu        sync.Mutex
	next      int
	open      []*openSpan // begin order
	done      []span
	orphans   []int64 // BeforeRun times with no open parent
	timedFrom int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// markTimed records the start of the timed phase; spans starting from here on
// are the timed phase's.
func (t *tracer) markTimed() {
	t.mu.Lock()
	t.timedFrom = t.now()
	t.mu.Unlock()
}

// begin opens a parent span. keys lists the simulations it may cause (nil
// for any); warmup is their warm-up length.
func (t *tracer) begin(name string, keys map[simKey]bool, warmup uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	t.open = append(t.open, &openSpan{
		span: span{ID: id, Name: name, Req: "req-" + strconv.Itoa(id), Start: t.now()},
		keys: keys, warmup: warmup,
	})
	return id
}

// end closes an open span.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, o := range t.open {
		if o.ID == id {
			o.End = t.now()
			t.done = append(t.done, o.span)
			t.open = append(t.open[:i], t.open[i+1:]...)
			return
		}
	}
}

// beforeRun notes a simulation starting on behalf of parent (0: unknown).
func (t *tracer) beforeRun(parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for _, o := range t.open {
		if o.ID == parent {
			o.pending = append(o.pending, now)
			return
		}
	}
	t.orphans = append(t.orphans, now)
}

// afterRun closes the simulation r (err != nil: it failed and is dropped). It
// is parented to the oldest in-flight span that started a simulation and
// names r's benchmark and machine; the start is that span's oldest pending
// BeforeRun. When one parent runs several simulations at once their starts
// pair first-in-first-out, which keeps their summed time exact. A simulation
// started without a parent in its context (a sweep job's) takes the oldest
// orphan start and the oldest in-flight span naming it.
func (t *tracer) afterRun(r experiments.Run, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	key := simKey{r.Benchmark, r.Machine}
	var parent *openSpan
	for _, o := range t.open {
		if len(o.pending) > 0 && (o.keys == nil || o.keys[key]) {
			parent = o
			break
		}
	}
	var start int64
	switch {
	case parent != nil:
		start, parent.pending = parent.pending[0], parent.pending[1:]
	case len(t.orphans) > 0:
		start, t.orphans = t.orphans[0], t.orphans[1:]
		for _, o := range t.open {
			if o.keys[key] {
				parent = o
				break
			}
		}
	default:
		return
	}
	if err != nil {
		return
	}
	t.next++
	s := span{ID: t.next, Name: "simulate", Start: start, End: now,
		Bench: r.Benchmark, Machine: r.Machine, Fetched: r.Fetched, Committed: r.Committed}
	s.Insts = r.Committed
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
		s.Insts += parent.warmup
	}
	t.done = append(t.done, s)
}

// hooks chains the tracer's simulation spans after prev.
func (t *tracer) hooks(prev experiments.RunCacheHooks) experiments.RunCacheHooks {
	return experiments.RunCacheHooks{
		BeforeRun: func(ctx context.Context) {
			if prev.BeforeRun != nil {
				prev.BeforeRun(ctx)
			}
			t.beforeRun(parentOf(ctx))
		},
		AfterRun: func(r experiments.Run, err error) {
			if prev.AfterRun != nil {
				prev.AfterRun(r, err)
			}
			t.afterRun(r, err)
		},
	}
}

// handler wraps the service with one span per request. The body is read to
// learn which simulations the request may cause; the span id rides the
// context so the RunCache hooks can find it.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		keys, warmup := requestKeys(body)
		id := t.begin(r.Method+" "+r.URL.Path, keys, warmup)
		next.ServeHTTP(w, r.WithContext(withParent(r.Context(), id)))
		t.end(id)
	})
}

// requestKeys reads the simulations a simulate or sweep body may cause and
// their warm-up length. An unreadable body may cause none.
func requestKeys(body []byte) (map[simKey]bool, uint64) {
	var req struct {
		Predictor   string   `json:"predictor"`
		Predictors  []string `json:"predictors"`
		Workload    string   `json:"workload"`
		Fidelity    string   `json:"fidelity"`
		WarmupInsts uint64   `json:"warmup_insts"`
	}
	keys := map[simKey]bool{}
	if json.Unmarshal(body, &req) != nil {
		return keys, 0
	}
	warmup := experiments.Quick.WarmupInsts
	if req.Fidelity == "full" {
		warmup = experiments.Default.WarmupInsts
	}
	if req.WarmupInsts > 0 {
		warmup = req.WarmupInsts
	}
	preds := req.Predictors
	if req.Predictor != "" {
		preds = append(preds, req.Predictor)
	}
	for _, b := range benchmarksOf(req.Workload) {
		for _, p := range preds {
			keys[simKey{b.Name, p}] = true
		}
	}
	return keys, warmup
}

// benchmarksOf resolves a workload name the benchmark's requests use the way
// the service does: the Subset7 suite or one benchmark.
func benchmarksOf(name string) []workload.Benchmark {
	if name == "Subset7" {
		return workload.Subset7()
	}
	if b, err := workload.ByName(name); err == nil {
		return []workload.Benchmark{b}
	}
	return nil
}

type parentKey struct{}

func withParent(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) int {
	id, _ := ctx.Value(parentKey{}).(int)
	return id
}

// snapshot returns the closed spans and the start of the timed phase.
func (t *tracer) snapshot() ([]span, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.done...), t.timedFrom
}

// write dumps the closed spans as JSON.
func (t *tracer) write(path string) error {
	spans, _ := t.snapshot()
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is parent's duration minus the part of it its children cover;
// where children overlap, the overlap counts once.
func selfTime(parent span, children []span) int64 {
	type interval struct{ start, end int64 }
	ivs := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			ivs = append(ivs, interval{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var covered, reach int64
	reach = parent.Start
	for _, iv := range ivs {
		if iv.end <= reach {
			continue
		}
		covered += iv.end - max(iv.start, reach)
		reach = iv.end
	}
	return parent.dur() - covered
}
