package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/power"
	"bpredpower/internal/program"
	"bpredpower/internal/resultstore"
	"bpredpower/internal/workload"
)

// captured is one activity record a traced run's run cache saved: the
// workload's own input for the layer probes.
type captured struct {
	bench string
	opt   cpu.Options
	rc    experiments.RunConfig
	rec   experiments.ActivityRecord
}

// maxCaptured bounds the records a traced run keeps for the probes.
const maxCaptured = 32

// captureStore sits between a traced run cache and its persistent store (if
// any), forwarding every call and keeping the first activity records saved.
type captureStore struct {
	inner experiments.RunStore

	mu   sync.Mutex
	recs []captured
}

func (c *captureStore) Load(bench string, opt cpu.Options, rc experiments.RunConfig) (experiments.Run, bool) {
	if c.inner == nil {
		return experiments.Run{}, false
	}
	return c.inner.Load(bench, opt, rc)
}

func (c *captureStore) Save(bench string, opt cpu.Options, rc experiments.RunConfig, r experiments.Run) {
	if c.inner != nil {
		c.inner.Save(bench, opt, rc, r)
	}
}

func (c *captureStore) LoadActivity(bench string, opt cpu.Options, rc experiments.RunConfig) (experiments.ActivityRecord, bool) {
	if as, ok := c.inner.(experiments.ActivityStore); ok {
		return as.LoadActivity(bench, opt, rc)
	}
	return experiments.ActivityRecord{}, false
}

func (c *captureStore) SaveActivity(bench string, opt cpu.Options, rc experiments.RunConfig, rec experiments.ActivityRecord) {
	if as, ok := c.inner.(experiments.ActivityStore); ok {
		as.SaveActivity(bench, opt, rc, rec)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.recs) < maxCaptured {
		c.recs = append(c.recs, captured{bench, opt, rc, rec})
	}
}

func (c *captureStore) snapshot() []captured {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]captured(nil), c.recs...)
}

// pricingKeys are the eight pricing variants a reprice sweep folds each
// execution key into: banking × clock-gating style.
func pricingKeys(opt cpu.Options) []cpu.Options {
	var out []cpu.Options
	for _, banked := range []bool{false, true} {
		for _, style := range []power.GatingStyle{power.CC0, power.CC1, power.CC2, power.CC3} {
			o := opt
			o.BankedPredictor, o.ClockGating = banked, style
			out = append(out, o)
		}
	}
	return out
}

// probeReps is how many times each probe repeats over the captured inputs.
const probeReps = 3

// probeSink keeps probe results live so the calls cannot be optimized away.
var probeSink float64

// probes times direct calls into each layer with the run's own captured
// inputs and returns their medians.
func (rc *runCtx) probes() map[string]float64 {
	recs := rc.capture.snapshot()
	var gen, newSim, newMeter, setAct, fold, save, load []float64
	us := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

	progs := map[string]*program.Program{}
	for _, r := range recs {
		if progs[r.bench] != nil {
			continue
		}
		b, err := workload.ByName(r.bench)
		if err != nil {
			rc.fail(err)
			return nil
		}
		t0 := time.Now()
		progs[r.bench] = b.Program()
		gen = append(gen, us(t0)/1e3)
	}

	ps, err := resultstore.Open(filepath.Join(rc.workDir, "probe-store"), resultstore.Config{})
	if err != nil {
		rc.fail(err)
		return nil
	}
	for rep := 0; rep < probeReps; rep++ {
		for _, r := range recs {
			t0 := time.Now()
			sim, err := cpu.New(progs[r.bench], r.opt)
			newSim = append(newSim, us(t0))
			if err != nil {
				rc.fail(err)
				continue
			}
			sim.Release()

			t0 = time.Now()
			m, err := cpu.NewMeter(r.opt)
			newMeter = append(newMeter, us(t0))
			if err != nil {
				rc.fail(err)
				continue
			}
			t0 = time.Now()
			err = m.SetActivity(r.rec.Activity)
			probeSink += m.PredictorPower() + m.AveragePower() + m.PredictorEnergy() + m.TotalEnergy() + m.EnergyDelay()
			setAct = append(setAct, us(t0))
			if err != nil {
				rc.fail(err)
			}

			for _, o := range pricingKeys(r.opt) {
				t0 = time.Now()
				run, err := experiments.Reprice(r.rec, o)
				fold = append(fold, us(t0))
				probeSink += run.TotalEnergy
				if err != nil {
					rc.fail(err)
				}
			}

			t0 = time.Now()
			ps.SaveActivity(r.bench, r.opt, r.rc, r.rec)
			save = append(save, us(t0))
			t0 = time.Now()
			got, ok := ps.LoadActivity(r.bench, r.opt, r.rc)
			load = append(load, us(t0))
			if !ok || got.Activity.Cycles != r.rec.Activity.Cycles {
				rc.fail(fmt.Errorf("result store probe: activity of %s did not round-trip", r.bench))
			}
		}
	}
	return map[string]float64{
		"program.generate_ms_p50":          median(gen),
		"cpu.new_us_p50":                   median(newSim),
		"power.new_meter_us_p50":           median(newMeter),
		"power.set_activity_us_p50":        median(setAct),
		"power.reprice_fold_us_p50":        median(fold),
		"resultstore.save_activity_us_p50": median(save),
		"resultstore.load_activity_us_p50": median(load),
	}
}

// layerMetrics derives a traced run's per-layer metrics from its spans,
// counters and probes. Stage shares and the tracing overhead come from the
// parent process.
func (rc *runCtx) layerMetrics() map[string]float64 {
	spans, timedFrom := rc.tr.snapshot()
	m := rc.probes()
	if m == nil {
		m = map[string]float64{}
	}

	children := map[int][]span{}
	var sims []float64
	var simNs, timedSimNs int64
	var insts, fetched, committed, timedSims uint64
	for _, s := range spans {
		if s.Name != "simulate" {
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
		sims = append(sims, float64(s.dur())/1e6)
		simNs += s.dur()
		insts += s.Insts
		fetched += s.Fetched
		committed += s.Committed
		if s.Start >= timedFrom {
			timedSims++
			timedSimNs += s.dur()
		}
	}
	m["cpu.ns_per_inst"] = ratio(float64(simNs), float64(insts))
	m["cpu.insts_simulated"] = float64(insts)
	m["cpu.wrong_path_share"] = ratio(float64(fetched-committed), float64(fetched))
	m["experiments.simulations"] = float64(len(sims))
	m["experiments.timed_simulations"] = float64(timedSims)
	m["experiments.simulate_ms_p50"] = median(sims)
	m["experiments.simulate_busy_share"] = ratio(float64(timedSimNs)/1e9, rc.loop.elapsed.Seconds()*clients)

	// The timed phase's top-level spans are its HTTP requests, or on
	// paper_figures, which has no HTTP layer, its figure calls.
	var self []float64
	requests := 0
	for _, s := range spans {
		if s.Name == "simulate" || s.Start < timedFrom {
			continue
		}
		requests++
		self = append(self, float64(selfTime(s, children[s.ID]))/1e6)
		if fig, ok := strings.CutPrefix(s.Name, "figure "); ok {
			m[figureMetric(fig)] += float64(s.dur()) / 1e9
		}
	}
	m["service.requests"] = float64(requests)
	m["service.self_ms_p50"] = median(self)
	m["service.response_bytes"] = ratio(float64(rc.respBytes.Load()), float64(requests))

	ops := float64(rc.loop.attempted)
	var hits, misses, folds, images float64
	if rc.cache != nil {
		after := rc.cache.Stats()
		hits = float64(after.Hits - rc.cacheBefore.Hits)
		misses = float64(after.Misses - rc.cacheBefore.Misses)
		folds = float64(after.RepriceFolds - rc.cacheBefore.RepriceFolds)
		images = float64(after.Programs)
	}
	m["experiments.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["experiments.folds"] = folds
	m["experiments.folds_per_request"] = ratio(folds, ops)
	m["program.images"] = images

	var st resultstore.Stats
	if rc.srv != nil && rc.srv.store != nil {
		st = rc.srv.store.Stats()
	}
	m["resultstore.puts"] = float64(st.Puts)
	m["resultstore.hits"] = float64(st.Hits)
	m["resultstore.misses"] = float64(st.Misses)
	return m
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stages are the simulator stages samples are attributed to.
var stages = []string{"fetch", "dispatch", "issue", "writeback", "commit", "bpred", "power"}

// stageOf attributes one sampled stack, leaf first, to the nearest enclosing
// stage: a predictor or power-model frame, or one of the pipeline stage
// methods the simulator's step calls. Shared callees such as the caches and
// TLBs count toward the stage that called them. It returns "" for stacks
// outside the simulator's cycle loop.
func stageOf(frames []string) string {
	inStep := false
	for _, f := range frames {
		if strings.HasSuffix(f, "internal/cpu.(*Sim).step") {
			inStep = true
		}
	}
	if !inStep {
		return ""
	}
	for _, f := range frames {
		switch {
		case strings.Contains(f, "bpredpower/internal/bpred."):
			return "bpred"
		case strings.Contains(f, "bpredpower/internal/power."):
			return "power"
		}
		if method, ok := strings.CutPrefix(f, "bpredpower/internal/cpu.(*Sim)."); ok {
			switch method {
			case "fetch":
				return "fetch"
			case "dispatch":
				return "dispatch"
			case "issue":
				return "issue"
			case "writebackAndResolve":
				return "writeback"
			case "commit":
				return "commit"
			}
		}
	}
	return "other"
}

// stageShares attributes a CPU profile's samples in the simulator's cycle
// loop to stages, from `go tool pprof -traces`: each stage's share of the
// loop's samples.
func stageShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` output: blocks separated by dashed
// lines, each a sample value followed by its stack, leaf first.
func parseTraces(out []byte) (map[string]float64, error) {
	weight := map[string]float64{}
	var total float64
	var frames []string
	var value float64
	flush := func() {
		if st := stageOf(frames); st != "" {
			weight[st] += value
			total += value
		}
		frames, value = nil, 0
	}
	inBlock := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBlock = true
		case !inBlock || len(fields) == 0:
			// the header before the first block
		case len(frames) == 0:
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: malformed sample line %q", line)
			}
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, err
			}
			value, frames = v, append(frames, fields[1])
		default:
			frames = append(frames, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, st := range stages {
		shares["cpu.stage_share."+st] = ratio(weight[st], total)
	}
	return shares, nil
}

// parseDuration reads a pprof sample value such as "10ms" or "1.20s" in
// seconds.
func parseDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("unknown sample value %q", s)
}
