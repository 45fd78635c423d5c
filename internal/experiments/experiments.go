// Package experiments reproduces every data table and figure of the paper's
// evaluation: the benchmark characterization (Table 2), the old-vs-new power
// model comparison (Figure 2), squarification (Figure 3), the 14-predictor
// performance/power/energy characterization on SPECint and SPECfp (Figures
// 5-10), banking (Table 3, Figures 11-13), inter-branch distances (Figure
// 14), the prediction probe detector (Figures 16-17), and pipeline gating
// (Figure 19).
//
// A Harness memoizes simulation runs (and, through its RunCache, program
// images) so figures that share underlying sweeps (5/6/7 and 8/9/10) pay
// for each run once. Every Run it reports comes from one simulation per
// execution key: the base Run of that simulation's ActivityRecord, or a
// closed-form Reprice fold of it.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/power"
	"bpredpower/internal/ppd"
	"bpredpower/internal/program"
	"bpredpower/internal/workload"
)

// RunConfig sets simulation lengths. The paper fast-forwards 2B instructions
// and measures 200M; we warm micro-architectural state for WarmupInsts and
// measure MeasureInsts (the synthetic workloads reach steady state quickly).
type RunConfig struct {
	WarmupInsts, MeasureInsts uint64
}

// Default is the full-fidelity configuration used by cmd/bpexperiments.
var Default = RunConfig{WarmupInsts: 200000, MeasureInsts: 200000}

// Quick is a fast configuration for tests and benchmarks.
var Quick = RunConfig{WarmupInsts: 30000, MeasureInsts: 60000}

// Run is the outcome of simulating one benchmark on one machine variant.
type Run struct {
	Benchmark string
	Machine   string

	Accuracy float64 // conditional direction-prediction rate
	IPC      float64

	// BpredPower is the direction predictor + BTB (+RAS, +PPD) power.
	BpredPower float64 //bp:unit W
	// TotalPower is whole-chip power.
	TotalPower float64 //bp:unit W
	// BpredEnergy is predictor energy over the measured window.
	BpredEnergy float64 //bp:unit J
	// TotalEnergy is whole-chip energy over the measured window.
	TotalEnergy float64 //bp:unit J
	// EnergyDelay is the energy-delay product over the measured window.
	EnergyDelay float64 //bp:unit J*s

	CondFreq, UncondFreq      float64
	AvgCondDist, AvgCtlDist   float64
	FracCondGT10, FracCtlGT10 float64

	Fetched, Committed uint64
	GatedCycles        uint64
	BTBMisfetches      uint64
}

// runKey identifies one simulation. cpu.Options contains only comparable
// value types, so using it verbatim makes the key complete by construction:
// any Options field that changes simulation behavior — including ones a
// hand-rolled label could forget, like ClockGating — yields a distinct key.
type runKey struct {
	bench string
	opt   cpu.Options
}

// Job names one simulation a figure needs: a benchmark on a machine variant.
type Job struct {
	Bench workload.Benchmark
	Opt   cpu.Options
}

// Harness memoizes runs. Parallel sets the worker count used by Prefetch
// (0 means GOMAXPROCS); the memo maps themselves are only ever touched from
// the caller's goroutine, so a Harness is not safe for concurrent use —
// parallelism happens inside Prefetch, not across callers.
//
// Ctx, when set, is consulted between simulations and between the chunks
// each simulation runs in (see simulate): once it is canceled the harness
// stops starting work, records the context error (Err), and returns zero
// Runs for anything it did not finish. Nothing partial is ever memoized, so
// a harness that was canceled can simply be retried. A nil Ctx means
// Background.
//
// Cache resolves every activity record and program image the harness
// needs. NewHarness gives each harness its own unbounded RunCache; a caller
// may replace it with a shared, bounded one — one per server, say — so
// several harnesses deduplicate identical simulations across goroutines via
// its singleflight and share one LRU budget. Set it before the first
// simulation.
type Harness struct {
	RC       RunConfig
	Parallel int
	Ctx      context.Context
	Cache    *RunCache

	err  error
	runs map[runKey]Run
	acts map[runKey]ActivityRecord

	actSims  atomic.Uint64 // base simulations this harness computed itself
	actFolds atomic.Uint64 // Runs produced by folding a cached activity
}

// NewHarness builds a harness with the given run configuration. Jobs that
// differ only in pricing options — BankedPredictor, OldArrayModel,
// SquarifyClosest, ClockGating — share one simulation of their execution
// key and are folded from its activity record (see reprice.go).
func NewHarness(rc RunConfig) *Harness {
	return &Harness{
		RC:    rc,
		Cache: NewRunCache(0),
		runs:  map[runKey]Run{},
		acts:  map[runKey]ActivityRecord{},
	}
}

// ctx returns the harness context, Background when none was set.
func (h *Harness) ctx() context.Context {
	if h.Ctx != nil {
		return h.Ctx
	}
	return context.Background()
}

// Err returns the first context error a Prefetch or Simulate call observed,
// nil if every requested simulation completed. Callers that buffer figure
// output check it before trusting the buffer.
func (h *Harness) Err() error { return h.err }

func (h *Harness) noteErr(err error) {
	if h.err == nil && err != nil {
		h.err = err
	}
}

// Workers returns the number of goroutines Prefetch and ForEach use.
func (h *Harness) Workers() int {
	if h.Parallel > 0 {
		return h.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Prefetch simulates every not-yet-memoized job on a bounded worker pool so
// that the Simulate calls a figure subsequently makes are all cache hits.
// Output determinism is preserved by construction:
//   - jobs are deduplicated up front onto their execution keys (against the
//     memo and within the list), so each execution key simulates exactly
//     once — concurrent demand for the same run never races (singleflight
//     by planning) — and every pricing variant is folded from that one
//     simulation's activity record;
//   - workers write only to disjoint, pre-sized slice slots and read only
//     immutable inputs (program images are generated in a prior phase and
//     never mutated during simulation);
//   - the pool is joined before any result is read, and results are merged
//     into the memo maps on the caller's goroutine.
//
// Printing stays with the caller, in the same order as serial execution, so
// figure output is byte-identical for any worker count.
func (h *Harness) Prefetch(jobs []Job) {
	h.noteErr(h.PrefetchCtx(h.ctx(), jobs))
}

// PrefetchCtx is Prefetch under an explicit context. Once ctx is canceled,
// no new simulation starts (in-flight ones finish: cancellation latency is
// bounded by one job) and the first context error is returned. Only fully
// completed runs are merged into the memo, so a canceled prefetch leaves the
// cache consistent — retrying with a live context finishes the remainder.
func (h *Harness) PrefetchCtx(ctx context.Context, jobs []Job) error {
	// pending holds the base-pricing simulation of each execution key the
	// plan's jobs share. Pricing variants never enter the pool — they are
	// folded on the caller's goroutine after it joins, in microseconds.
	seen := make(map[runKey]bool, len(jobs))
	seenAct := make(map[runKey]bool)
	pending := make([]Job, 0, len(jobs))
	folds := make([]Job, 0)
	for _, j := range jobs {
		k := runKey{j.Bench.Name, j.Opt}
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := h.runs[k]; ok {
			continue
		}
		execOpt, pk := SplitOptions(j.Opt)
		if !pk.IsBase() {
			folds = append(folds, j)
		}
		ek := runKey{j.Bench.Name, execOpt}
		if seenAct[ek] {
			continue
		}
		seenAct[ek] = true
		if _, ok := h.acts[ek]; !ok {
			pending = append(pending, Job{Bench: j.Bench, Opt: execOpt})
		}
	}
	if len(pending) == 0 && len(folds) == 0 {
		return ctx.Err()
	}

	// Phase 1: generate the program images in parallel, deduplicated by
	// benchmark (generation is independent of Options); the cache memoizes
	// them and singleflights concurrent demand. Phase 2 simulates: workers
	// read only these immutable images. done marks slots whose simulation
	// ran to completion; under cancellation the others are never merged.
	genSeen := map[string]bool{}
	var gen []workload.Benchmark
	for _, j := range pending {
		if genSeen[j.Bench.Name] {
			continue
		}
		genSeen[j.Bench.Name] = true
		gen = append(gen, j.Bench)
	}
	if len(gen) > 0 {
		if err := ForEachCtx(ctx, h.Workers(), len(gen), func(i int) {
			h.Cache.Program(gen[i])
		}); err != nil {
			return err
		}
	}
	recs := make([]ActivityRecord, len(pending))
	errs := make([]error, len(pending))
	done := make([]bool, len(pending))
	ferr := ForEachCtx(ctx, h.Workers(), len(pending), func(i int) {
		recs[i], errs[i] = h.Cache.activity(ctx, pending[i].Bench, pending[i].Opt, h.RC, &h.actSims)
		done[i] = true
	})
	for i, j := range pending {
		if !done[i] || errs[i] != nil {
			continue
		}
		k := runKey{j.Bench.Name, j.Opt}
		h.acts[k] = recs[i]
		h.runs[k] = recs[i].Run
	}
	// Fold the pricing variants of every execution key whose activity record
	// is in hand. A variant whose base simulation failed or was canceled is
	// simply skipped — the memo stays consistent and a later retry (or the
	// Simulate call itself) finishes the remainder.
	for _, j := range folds {
		k := runKey{j.Bench.Name, j.Opt}
		if _, ok := h.runs[k]; ok {
			continue
		}
		execOpt, _ := SplitOptions(j.Opt)
		rec, ok := h.acts[runKey{j.Bench.Name, execOpt}]
		if !ok {
			continue
		}
		r, err := h.Cache.fold(rec, j.Opt)
		if err != nil {
			return err
		}
		h.actFolds.Add(1)
		h.runs[k] = r
	}
	if ferr != nil {
		return ferr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEach calls fn(i) for each i in [0,n) on up to workers goroutines and
// returns after all calls complete. Invocations must be independent; callers
// keep determinism by writing results into pre-sized slices by index.
func ForEach(workers, n int, fn func(int)) {
	_ = ForEachCtx(context.Background(), workers, n, fn)
}

// ForEachCtx is ForEach under a context: workers stop claiming new indices
// once ctx is canceled, so at most the in-flight calls (one per worker)
// still complete — cancellation latency is bounded by one job. It returns
// ctx.Err() as observed after the join (nil when every index ran).
func ForEachCtx(ctx context.Context, workers, n int, fn func(int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// machineLabel renders a machine variant for display (Run.Machine). It is
// not the memo key — runKey embeds the full Options for that.
func machineLabel(opt cpu.Options) string {
	l := opt.Predictor.Name
	if opt.BankedPredictor {
		l += "+banked"
	}
	if opt.PPD != ppd.Off {
		l += "+" + opt.PPD.String()
	}
	if opt.Gating.Enabled {
		l += fmt.Sprintf("+gateN%d", opt.Gating.Threshold)
	}
	if opt.OldArrayModel {
		l += "+oldmodel"
	}
	if opt.SquarifyClosest {
		l += "+sqclosest"
	}
	if opt.ChargeLookupsPerBranch {
		l += "+perbranch"
	}
	if opt.LinePredictor {
		l += "+linepred"
	}
	if opt.Gating.Enabled && opt.Gating.Estimator != 0 {
		l += "+" + opt.Gating.Estimator.String()
	}
	if opt.ClockGating != power.CC3 {
		l += "+" + opt.ClockGating.String()
	}
	return l
}

// Simulate runs one benchmark on one machine variant (memoized). When the
// harness context is canceled it records the error (see Err) and returns a
// zero Run without memoizing it — the miss stays a miss.
func (h *Harness) Simulate(b workload.Benchmark, opt cpu.Options) Run {
	key := runKey{b.Name, opt}
	if r, ok := h.runs[key]; ok {
		return r
	}
	r, folded, err := h.Cache.resolve(opt, func(execOpt cpu.Options) (ActivityRecord, error) {
		ek := runKey{b.Name, execOpt}
		if rec, ok := h.acts[ek]; ok {
			return rec, nil
		}
		rec, err := h.Cache.activity(h.ctx(), b, execOpt, h.RC, &h.actSims)
		if err == nil {
			h.acts[ek] = rec
			h.runs[ek] = rec.Run
		}
		return rec, err
	})
	if err != nil {
		h.noteErr(err)
		return Run{}
	}
	if folded {
		h.actFolds.Add(1)
		h.runs[key] = r
	}
	return r
}

// chunkInsts bounds how many instructions a simulation runs between two
// context checks: a canceled run stops within one chunk, about 0.1 s at
// 300–400 ns per instruction, instead of one whole phase.
const chunkInsts = 250_000

// simulate runs one simulation of b under opt to completion on one Sim:
// rc.WarmupInsts of warm-up, a measurement reset, then rc.MeasureInsts
// measured, each phase advanced with RunTo in chunks of at most chunk
// instructions (the harness passes chunkInsts; tests pass smaller ones).
// The context is checked before every chunk. Stopping at a chunk boundary
// never mutates machine state, so a run that finishes is bit-identical at
// any chunk length. It is a pure function of its arguments (p is immutable
// during simulation), which is what makes the Prefetch worker pool safe.
func simulate(ctx context.Context, p *program.Program, b workload.Benchmark, opt cpu.Options, rc RunConfig, chunk uint64) (ActivityRecord, error) {
	sim := cpu.MustNew(p, opt)
	defer sim.Release()
	// advance runs n more instructions; a cycle-limit hit in any chunk
	// fails the phase.
	advance := func(phase string, n uint64) error {
		target := sim.Stats().Committed + n
		for done := sim.Stats().Committed; done < target; done = sim.Stats().Committed {
			if err := ctx.Err(); err != nil {
				return err
			}
			sim.RunTo(min(target, done+chunk))
			if st := sim.Stats(); st.CycleLimitHit {
				return fmt.Errorf("experiments: %s on %s: %s hit the cycle safety limit after %d of %d instructions", b.Name, machineLabel(opt), phase, st.Committed, n)
			}
		}
		return nil
	}
	if err := advance("warm-up", rc.WarmupInsts); err != nil {
		return ActivityRecord{}, err
	}
	sim.ResetMeasurement()
	if err := advance("measurement", rc.MeasureInsts); err != nil {
		return ActivityRecord{}, err
	}
	return ActivityRecord{Run: runRecord(b, opt, sim), Activity: sim.Meter().Activity()}, nil
}

// runRecord reads one finished simulation into a Run.
func runRecord(b workload.Benchmark, opt cpu.Options, sim *cpu.Sim) Run {
	st := sim.Stats()
	m := sim.Meter()
	return Run{
		Benchmark:     b.Name,
		Machine:       machineLabel(opt),
		Accuracy:      st.DirAccuracy(),
		IPC:           st.IPC(),
		BpredPower:    m.PredictorPower(),
		TotalPower:    m.AveragePower(),
		BpredEnergy:   m.PredictorEnergy(),
		TotalEnergy:   m.TotalEnergy(),
		EnergyDelay:   m.EnergyDelay(),
		CondFreq:      st.CondBranchFreq(),
		UncondFreq:    st.UncondFreq(),
		AvgCondDist:   st.AvgCondDistance(),
		AvgCtlDist:    st.AvgCtlDistance(),
		FracCondGT10:  st.FracCondDistanceGT10(),
		FracCtlGT10:   st.FracCtlDistanceGT10(),
		Fetched:       st.Fetched,
		Committed:     st.Committed,
		GatedCycles:   st.GatedCycles,
		BTBMisfetches: st.BTBMisfetches,
	}
}

// SimulateAll runs a benchmark list on one machine variant.
func (h *Harness) SimulateAll(bs []workload.Benchmark, opt cpu.Options) []Run {
	out := make([]Run, len(bs))
	for i, b := range bs {
		out[i] = h.Simulate(b, opt)
	}
	return out
}

// mean of a projection over runs.
func mean(rs []Run, f func(Run) float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	var s float64
	for _, r := range rs {
		s += f(r)
	}
	return s / float64(len(rs))
}

// shortName strips the SPEC number prefix for column headers.
func shortName(b string) string {
	for i := 0; i < len(b); i++ {
		if b[i] == '.' {
			return b[i+1:]
		}
	}
	return b
}

// predictorSweep simulates every paper predictor configuration over the
// given suite and returns runs[configIdx][benchIdx].
func (h *Harness) predictorSweep(bs []workload.Benchmark) [][]Run {
	out := make([][]Run, len(bpred.PaperConfigs()))
	for i, spec := range bpred.PaperConfigs() {
		out[i] = h.SimulateAll(bs, cpu.Options{Predictor: spec})
	}
	return out
}

// matrix prints one metric across configs (rows) and benchmarks (columns),
// with an arithmetic-mean column, mirroring the layout of Figures 5-10.
func matrix(w io.Writer, title string, bs []workload.Benchmark, sweep [][]Run, f func(Run) float64, format string) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-14s", "predictor")
	for _, b := range bs {
		fmt.Fprintf(w, " %9s", trunc(shortName(b.Name), 9))
	}
	fmt.Fprintf(w, " %9s\n", "Average")
	for i, spec := range bpred.PaperConfigs() {
		fmt.Fprintf(w, "%-14s", spec.Name)
		for _, r := range sweep[i] {
			fmt.Fprintf(w, " "+format, f(r))
		}
		fmt.Fprintf(w, " "+format+"\n", mean(sweep[i], f))
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// per1k returns n per thousand d, 0 when d is 0.
func per1k(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 1000 * float64(n) / float64(d)
}
