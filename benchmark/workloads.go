package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bpredpower/internal/bpred"
	"bpredpower/internal/experiments"
	"bpredpower/internal/program"
	"bpredpower/internal/service"
	"bpredpower/internal/workload"
	"bpredpower/internal/xrand"
)

// spec is one benchmark workload.
type spec struct {
	name string
	// oneCPU runs the timed phase with GOMAXPROCS=1. For requests of tens
	// of microseconds, handing goroutines between the vCPUs of a two-vCPU
	// virtual machine made run-to-run latency spread about twice as wide
	// as on one CPU. Requests of milliseconds stay on two: on one, two
	// concurrent requests share the scheduler's 10 ms preemption quantum,
	// and their tail jumps by a quantum in some runs.
	oneCPU bool
	run    func(*runCtx) error
}

// workloads are the benchmark's workloads; README.md says why each exists.
var workloads = []spec{
	{"paper_figures", false, runPaperFigures},
	{"serve_cold", false, runServeCold},
	{"serve_warm", true, runServeWarm},
	{"reprice_sweep", false, runRepriceSweep},
}

// tailPercentile is the percentile latency_tail_ms reports where at least
// minBeyond samples lie beyond it.
const tailPercentile = 99

func specByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// window picks a request's simulation lengths: a fidelity name at full scale,
// explicit instruction counts at the smoke test's toy scale.
type window struct {
	fidelity        string
	warmup, measure uint64
}

// fields renders the window as request-body JSON fields.
func (w window) fields() string {
	if w.fidelity != "" {
		return fmt.Sprintf(`"fidelity":%q`, w.fidelity)
	}
	return fmt.Sprintf(`"warmup_insts":%d,"measure_insts":%d`, w.warmup, w.measure)
}

// figure is one figure function of experiments.All, in its order.
type figure struct {
	name string
	run  func(*experiments.Harness, io.Writer)
	gap  bool // experiments.All prints a blank line after it
}

func static(f func(io.Writer)) func(*experiments.Harness, io.Writer) {
	return func(_ *experiments.Harness, w io.Writer) { f(w) }
}

// allFigures is experiments.All unrolled, so a traced run can time each
// figure; the suite's output digest gates that the two stay identical.
var allFigures = []figure{
	{"Table1", static(experiments.Table1), true},
	{"Table2", experiments.Table2, true},
	{"Figure2", experiments.Figure2, true},
	{"Figure3", static(experiments.Figure3), false},
	{"Figure5", experiments.Figure5, false},
	{"Figure6", experiments.Figure6, false},
	{"Figure7", experiments.Figure7, false},
	{"Figure8", experiments.Figure8, false},
	{"Figure9", experiments.Figure9, false},
	{"Figure10", experiments.Figure10, true},
	{"Table3", static(experiments.Table3), true},
	{"Figure11", static(experiments.Figure11), true},
	{"Figures12And13", experiments.Figures12And13, true},
	{"Figure14", experiments.Figure14, true},
	{"Figures16And17", experiments.Figures16And17, true},
	{"Figure19", experiments.Figure19, true},
	{"ExtensionConfidence", experiments.ExtensionConfidence, true},
	{"ExtensionLinePredictor", experiments.ExtensionLinePredictor, true},
	{"ExtensionModernPredictors", experiments.ExtensionModernPredictors, true},
	{"ExtensionGatingStyles", experiments.ExtensionGatingStyles, false},
}

// scale sizes the workloads. fullScale is the benchmark; the smoke test runs
// a toy scale through the same code.
type scale struct {
	preds   []string // predictors of the serving key space
	benches []string // benchmarks of the serving key space
	cold    window   // serve_cold's requests
	quick   window   // serve_warm's and reprice_sweep's requests
	// sweepWorkload is every reprice sweep's workload; sweepBenches is its
	// benchmark count.
	sweepWorkload string
	sweepBenches  int

	suiteRC experiments.RunConfig
	suite   func(*experiments.Harness, io.Writer) // untraced paper_figures
	figures []figure                              // traced paper_figures, same output
	// wantSuite reads the output paper_figures must reproduce.
	wantSuite func(root string) ([]byte, error)

	setups int // set-up repetitions per run; setup_s is their median
	maxOps int // cap on timed operations (0: only the time box)
}

func fullScale() scale {
	var preds []string
	for _, s := range bpred.PaperConfigs() {
		preds = append(preds, s.Name)
	}
	preds = append(preds, "TAGE_64k", "Perceptron_64k")
	return scale{
		preds:         preds,
		benches:       workload.Names(workload.All()),
		cold:          window{fidelity: "full"},
		quick:         window{fidelity: "quick"},
		sweepWorkload: "Subset7",
		sweepBenches:  len(workload.Subset7()),
		suiteRC:       experiments.Default,
		suite:         experiments.All,
		figures:       allFigures,
		wantSuite: func(root string) ([]byte, error) {
			return os.ReadFile(filepath.Join(root, "experiments_output.txt"))
		},
		setups: 3,
	}
}

// report is what a worker measured, printed as JSON for the parent process.
type report struct {
	Setup     []float64          `json:"setup_s"`
	Latency   latencySummary     `json:"latency_ms"`
	TimedS    float64            `json:"timed_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	// PostS is the time the worker spent after the workload ended: a traced
	// run's probes and span dump.
	PostS float64 `json:"post_s"`
}

// runCtx is one workload run in a worker process.
type runCtx struct {
	spec    spec
	seed    uint64
	seconds time.Duration
	root    string // checkout holding the goldens
	workDir string // this run's directory for result stores
	sc      scale

	tr      *tracer       // nil when untraced
	capture *captureStore // traced runs: activity records for the probes

	rep    report
	runEnd time.Time // when the workload returned
	// Timed-phase state the per-layer metrics read.
	loop        loopResult
	cache       *experiments.RunCache // the run cache the timed phase used
	cacheBefore experiments.CacheStats
	srv         *server // the server of the timed phase, nil for paper_figures
	respBytes   atomic.Int64
}

// fail records a failed check.
func (rc *runCtx) fail(err error) {
	rc.rep.Failed++
	if len(rc.rep.Errors) < maxErrs {
		rc.rep.Errors = append(rc.rep.Errors, err.Error())
	}
}

// count folds a loop's outcomes into the report.
func (rc *runCtx) count(r loopResult) {
	rc.rep.Attempted += r.attempted
	rc.rep.Failed += r.failed
	for _, e := range r.errs {
		if len(rc.rep.Errors) < maxErrs {
			rc.rep.Errors = append(rc.rep.Errors, e)
		}
	}
}

// timed runs the timed phase's closed loop of `users` clients over at most n
// operations (n < 0: no limit) and records it. A boxed phase ends after
// rc.seconds; an unboxed one is a fixed amount of work and runs all n.
func (rc *runCtx) timed(users, n int, boxed bool, op func(i int) error) {
	if rc.sc.maxOps > 0 && (n < 0 || n > rc.sc.maxOps) {
		n = rc.sc.maxOps
	}
	if rc.spec.oneCPU {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if rc.tr != nil {
		rc.tr.markTimed()
	}
	var deadline time.Time
	if boxed {
		deadline = time.Now().Add(rc.seconds)
	}
	rc.loop = closedLoop(users, n, deadline, op)
	rc.count(rc.loop)
	rc.rep.Latency = summarize(rc.loop.latency, tailPercentile)
	rc.rep.TimedS = rc.loop.elapsed.Seconds()
}

// setUp runs build rc.sc.setups times, timing each, and keeps the last
// server for the timed phase.
func (rc *runCtx) setUp(build func(i int) (*server, error)) (*server, error) {
	var last *server
	for i := 0; i < rc.sc.setups; i++ {
		t0 := time.Now()
		s, err := build(i)
		if err != nil {
			return nil, err
		}
		rc.rep.Setup = append(rc.rep.Setup, time.Since(t0).Seconds())
		if last != nil {
			if err := last.close(); err != nil {
				return nil, err
			}
		}
		last = s
	}
	return last, nil
}

// newServer starts one set-up repetition's server and posts the golden
// simulate request to it.
func (rc *runCtx) newServer(cfg service.Config, withStore bool, i int, c *http.Client) (*server, error) {
	dir := ""
	if withStore {
		dir = filepath.Join(rc.workDir, "store-"+strconv.Itoa(i))
	}
	var capture *captureStore
	if rc.tr != nil {
		capture = rc.capture
	}
	s, err := startServer(cfg, dir, rc.tr, capture)
	if err != nil {
		return nil, err
	}
	want, err := os.ReadFile(filepath.Join(rc.root, "cmd", "bpserved", "testdata", "simulate.golden"))
	if err != nil {
		s.close()
		return nil, err
	}
	rc.rep.Attempted++
	if err := checkGolden(c, s.base, want); err != nil {
		rc.fail(err)
	}
	return s, nil
}

// permutation is a seeded Fisher-Yates shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng := xrand.NewSplitMix(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// key is one (predictor, benchmark) pair of the serving key space.
type key struct{ pred, bench string }

func (rc *runCtx) keys() []key {
	var ks []key
	for _, p := range rc.sc.preds {
		for _, b := range rc.sc.benches {
			ks = append(ks, key{p, b})
		}
	}
	return ks
}

func simulateBody(k key, w window) []byte {
	return []byte(fmt.Sprintf(`{"predictor":%q,"workload":%q,%s}`, k.pred, k.bench, w.fields()))
}

// runPaperFigures regenerates the whole figure suite on a fresh harness with
// no cache, exactly as `bpexperiments -parallel 2` does, and checks its bytes.
// It is a fixed amount of work: one suite, whatever rc.seconds says.
func runPaperFigures(rc *runCtx) error {
	want, err := rc.sc.wantSuite(rc.root)
	if err != nil {
		return err
	}
	wantSum := sha256.Sum256(want)

	// The suite has no set-up phase of its own. Its first step is generating
	// the benchmark program images; time that, so work moved into program
	// generation shows in setup_s here too.
	bs := make([]workload.Benchmark, len(rc.sc.benches))
	for i, name := range rc.sc.benches {
		if bs[i], err = workload.ByName(name); err != nil {
			return err
		}
	}
	for i := 0; i < rc.sc.setups; i++ {
		t0 := time.Now()
		progs := make([]*program.Program, len(bs))
		experiments.ForEach(clients, len(bs), func(i int) { progs[i] = bs[i].Program() })
		rc.rep.Setup = append(rc.rep.Setup, time.Since(t0).Seconds())
	}

	// One client: the suite spreads over `clients` workers itself.
	rc.timed(1, 1, false, func(int) error {
		h := experiments.NewHarness(rc.sc.suiteRC)
		h.Parallel = clients
		var out bytes.Buffer
		if rc.tr == nil {
			rc.sc.suite(h, &out)
		} else {
			rc.tracedSuite(h, &out)
		}
		if err := h.Err(); err != nil {
			return err
		}
		if sha256.Sum256(out.Bytes()) != wantSum {
			return fmt.Errorf("suite output (%d bytes) differs from experiments_output.txt (%d bytes)", out.Len(), len(want))
		}
		rc.respBytes.Add(int64(out.Len()))
		return nil
	})
	return nil
}

// tracedSuite runs the suite figure by figure, one span each, on a run cache
// whose hooks report simulation spans.
func (rc *runCtx) tracedSuite(h *experiments.Harness, out io.Writer) {
	cache := experiments.NewRunCache(0)
	cache.Hooks = rc.tr.hooks(cache.Hooks)
	cache.Store = rc.capture
	h.Cache = cache
	rc.cache = cache
	for _, f := range rc.sc.figures {
		id := rc.tr.begin("figure "+f.name, nil, rc.sc.suiteRC.WarmupInsts)
		h.Ctx = withParent(context.Background(), id)
		f.run(h, out)
		if f.gap {
			fmt.Fprintln(out)
		}
		rc.tr.end(id)
	}
}

// runServeCold posts every (predictor, benchmark) key once at full fidelity,
// in seeded order, to a server whose store starts empty: every request is a
// simulation plus a write-through to the store. It is a fixed amount of
// work, whatever rc.seconds says: simulation time depends mostly on the key,
// so the keys a time box happened to reach would move the metrics as much as
// the code does.
func runServeCold(rc *runCtx) error {
	c := newClient()
	defer c.CloseIdleConnections()
	s, err := rc.setUp(func(i int) (*server, error) {
		return rc.newServer(service.Config{}, true, i, c)
	})
	if err != nil {
		return err
	}
	defer s.close()

	ks := rc.keys()
	order := permutation(rc.seed, len(ks))
	rc.startTimed(s)
	sims := s.simulations()
	rc.timed(clients, len(ks), false, func(i int) error {
		k := ks[order[i]]
		data, err := post(c, s.base+"/v1/simulate", simulateBody(k, rc.sc.cold))
		if err != nil {
			return err
		}
		rc.respBytes.Add(int64(len(data)))
		return checkSimulate(data, k)
	})
	if got, want := s.simulations()-sims, uint64(rc.loop.attempted); got != want {
		rc.fail(fmt.Errorf("serve_cold ran %d simulations for %d requests; every request must be a miss", got, want))
	}
	return nil
}

// checkSimulate checks a simulate response answers its key.
func checkSimulate(data []byte, k key) error {
	var resp service.SimulateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if resp.Predictor != k.pred || len(resp.Runs) != 1 || resp.Runs[0].Benchmark != k.bench ||
		resp.Runs[0].Machine != k.pred || resp.Runs[0].Committed < resp.MeasureInsts {
		return fmt.Errorf("response does not answer %s on %s", k.pred, k.bench)
	}
	return nil
}

// startTimed snapshots the timed-phase server's cache counters.
func (rc *runCtx) startTimed(s *server) {
	rc.srv = s
	rc.cache = s.srv.Cache
	rc.cacheBefore = s.srv.Cache.Stats()
}

// prime posts every body once on `clients` clients and returns the
// responses; later set-ups must reproduce the first's byte for byte.
func (rc *runCtx) prime(c *http.Client, url string, bodies [][]byte, first [][]byte) [][]byte {
	got := make([][]byte, len(bodies))
	r := closedLoop(clients, len(bodies), time.Time{}, func(i int) error {
		data, err := post(c, url, bodies[i])
		if err != nil {
			return err
		}
		got[i] = data
		if first != nil && !bytes.Equal(data, first[i]) {
			return fmt.Errorf("response to %s differs from the first set-up's", bodies[i])
		}
		return nil
	})
	rc.count(r)
	return got
}

// runServeWarm primes every key at quick fidelity into a 256-entry memory
// cache over a disk store, then draws keys uniformly: the working set is
// larger than the memory cache, so some requests read the store, and none
// simulates.
func runServeWarm(rc *runCtx) error {
	c := newClient()
	defer c.CloseIdleConnections()
	ks := rc.keys()
	bodies := make([][]byte, len(ks))
	for i, k := range ks {
		bodies[i] = simulateBody(k, rc.sc.quick)
	}
	var first [][]byte
	s, err := rc.setUp(func(i int) (*server, error) {
		s, err := rc.newServer(service.Config{CacheEntries: 256}, true, i, c)
		if err != nil {
			return nil, err
		}
		got := rc.prime(c, s.base+"/v1/simulate", bodies, first)
		if first == nil {
			first = got
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	defer s.close()

	rc.startTimed(s)
	sims := s.simulations()
	rc.timed(clients, -1, true, func(i int) error {
		k := int(xrand.Hash64(rc.seed, uint64(i)) % uint64(len(ks)))
		data, err := post(c, s.base+"/v1/simulate", bodies[k])
		if err != nil {
			return err
		}
		rc.respBytes.Add(int64(len(data)))
		if !bytes.Equal(data, first[k]) {
			return fmt.Errorf("response to %s differs from its first response", bodies[k])
		}
		return nil
	})
	if n := s.simulations() - sims; n != 0 {
		rc.fail(fmt.Errorf("serve_warm's timed phase ran %d simulations, want 0", n))
	}
	return nil
}

// sweepWidth is how many predictors each reprice sweep lists.
const sweepWidth = 4

// sweepLists returns every ordered list of sweepWidth distinct predictor
// indices out of n, in seeded order. Sweep i uses list i, so a run never
// repeats a list and never replays a finished sweep job.
func sweepLists(seed uint64, n int) [][sweepWidth]uint8 {
	var all [][sweepWidth]uint8
	var walk func(l [sweepWidth]uint8, depth int, used uint64)
	walk = func(l [sweepWidth]uint8, depth int, used uint64) {
		if depth == sweepWidth {
			all = append(all, l)
			return
		}
		for p := 0; p < n; p++ {
			if used&(1<<p) == 0 {
				l[depth] = uint8(p)
				walk(l, depth+1, used|1<<p)
			}
		}
	}
	walk([sweepWidth]uint8{}, 0, 0)
	out := make([][sweepWidth]uint8, len(all))
	for i, j := range permutation(seed, len(all)) {
		out[i] = all[j]
	}
	return out
}

// sweepStyles is the clock-gating axis of every reprice sweep.
var sweepStyles = []string{"cc0", "cc1", "cc2", "cc3"}

func (rc *runCtx) sweepBody(l [sweepWidth]uint8) []byte {
	names := make([]string, sweepWidth)
	for i, p := range l {
		names[i] = strconv.Quote(rc.sc.preds[p])
	}
	styles := make([]string, len(sweepStyles))
	for i, s := range sweepStyles {
		styles[i] = strconv.Quote(s)
	}
	return []byte(fmt.Sprintf(`{"predictors":[%s],"workload":%q,"banked":[false,true],"clock_gating":[%s],%s}`,
		strings.Join(names, ","), rc.sc.sweepWorkload, strings.Join(styles, ","), rc.sc.quick.fields()))
}

// runRepriceSweep primes every predictor on the sweep workload, then posts
// sweeps of distinct 4-predictor lists over banking × clock-gating styles:
// per sweep 4 base points come from cached activity records and the other 28
// per benchmark are repriced folds, with no simulation.
func runRepriceSweep(rc *runCtx) error {
	c := newClient()
	defer c.CloseIdleConnections()
	primes := make([][]byte, len(rc.sc.preds))
	for i, p := range rc.sc.preds {
		primes[i] = []byte(fmt.Sprintf(`{"predictor":%q,"workload":%q,%s}`, p, rc.sc.sweepWorkload, rc.sc.quick.fields()))
	}
	var first [][]byte
	s, err := rc.setUp(func(i int) (*server, error) {
		s, err := rc.newServer(service.Config{}, false, i, c)
		if err != nil {
			return nil, err
		}
		got := rc.prime(c, s.base+"/v1/simulate", primes, first)
		if first == nil {
			first = got
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	defer s.close()

	lists := sweepLists(rc.seed, len(rc.sc.preds))
	points := sweepWidth * 2 * len(sweepStyles) * rc.sc.sweepBenches
	seen := &pointLines{lines: map[string]string{}}
	rc.startTimed(s)
	sims := s.simulations()
	rc.timed(clients, len(lists), true, func(i int) error {
		data, err := post(c, s.base+"/v1/sweeps", rc.sweepBody(lists[i]))
		if err != nil {
			return err
		}
		rc.respBytes.Add(int64(len(data)))
		return seen.check(data, points)
	})
	if n := s.simulations() - sims; n != 0 {
		rc.fail(fmt.Errorf("reprice_sweep's timed phase ran %d simulations, want 0", n))
	}
	folds := s.srv.Cache.Stats().RepriceFolds - rc.cacheBefore.RepriceFolds
	if want := uint64(rc.loop.attempted-rc.loop.failed) * uint64(points-sweepWidth*rc.sc.sweepBenches); folds != want {
		rc.fail(fmt.Errorf("reprice_sweep folded %d runs, want %d", folds, want))
	}
	return nil
}

// pointLines checks sweep bodies: the header, one line per grid point, and a
// done trailer; and every point's result bytes equal to those the same
// (predictor, banked, clock_gating, benchmark) point had in earlier sweeps.
type pointLines struct {
	mu    sync.Mutex
	lines map[string]string // point coordinates → the line after its index
}

func (pl *pointLines) check(body []byte, points int) error {
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != points+2 {
		return fmt.Errorf("sweep body has %d lines, want %d", len(lines), points+2)
	}
	var trailer struct {
		Done   bool `json:"done"`
		Points int  `json:"points"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || !trailer.Done || trailer.Points != points {
		return fmt.Errorf("sweep trailer %s is not done with %d points", lines[len(lines)-1], points)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for i, ln := range lines[1 : len(lines)-1] {
		prefix := fmt.Sprintf(`{"point":%d,`, i)
		rest, ok := strings.CutPrefix(ln, prefix)
		coords, _, found := strings.Cut(rest, `,"machine"`)
		if !ok || !found {
			return fmt.Errorf("sweep point line %d is malformed: %s", i, ln)
		}
		if prev, ok := pl.lines[coords]; !ok {
			pl.lines[coords] = rest
		} else if prev != rest {
			return fmt.Errorf("sweep point %s differs from an earlier sweep's", coords)
		}
	}
	return nil
}
