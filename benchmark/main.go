// Command bpbenchmark is the repository benchmark. It runs one workload, the
// paper's figure suite or seeded closed-loop traffic against the simulation
// service, in a worker process of its own, checks every output, and prints
// each end-to-end metric by name and unit, then a JSON summary as the last
// line. With -trace 1 it reports the per-layer metrics of a traced run
// instead. benchmark/run.sh builds and runs it; README.md documents the
// workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions; a test keeps the two equal.
type metricDef struct{ name, unit, better string }

var endToEndDefs = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerDefs are the traced run's metrics. README.md says which end-to-end
// metric each should move, on which workload.
var layerDefs = []metricDef{
	{"cpu.ns_per_inst", "ns/inst", "lower"},
	{"cpu.new_us_p50", "us", "lower"},
	{"cpu.insts_simulated", "count", "lower"},
	{"cpu.wrong_path_share", "ratio", "lower"},
	{"cpu.stage_share.fetch", "ratio", "lower"},
	{"cpu.stage_share.dispatch", "ratio", "lower"},
	{"cpu.stage_share.issue", "ratio", "lower"},
	{"cpu.stage_share.writeback", "ratio", "lower"},
	{"cpu.stage_share.commit", "ratio", "lower"},
	{"cpu.stage_share.bpred", "ratio", "lower"},
	{"cpu.stage_share.power", "ratio", "lower"},
	{"power.reprice_fold_us_p50", "us", "lower"},
	{"power.new_meter_us_p50", "us", "lower"},
	{"power.set_activity_us_p50", "us", "lower"},
	{"experiments.simulations", "count", "lower"},
	{"experiments.timed_simulations", "count", "lower"},
	{"experiments.folds", "count", "lower"},
	{"experiments.folds_per_request", "count", "lower"},
	{"experiments.cache_hit_ratio", "ratio", "higher"},
	{"experiments.simulate_ms_p50", "ms", "lower"},
	{"experiments.simulate_busy_share", "ratio", "lower"},
	{"service.requests", "count", "higher"},
	{"service.response_bytes", "B", "lower"},
	{"service.self_ms_p50", "ms", "lower"},
	{"resultstore.puts", "count", "lower"},
	{"resultstore.hits", "count", "higher"},
	{"resultstore.misses", "count", "lower"},
	{"resultstore.load_activity_us_p50", "us", "lower"},
	{"resultstore.save_activity_us_p50", "us", "lower"},
	{"program.images", "count", "lower"},
	{"program.generate_ms_p50", "ms", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

func figureMetric(name string) string { return "experiments.figure_s." + name }

// workerBudget bounds the workers of one invocation; a run must end within
// three minutes.
const workerBudget = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: paper_figures, serve_cold, serve_warm, reprice_sweep, or all")
	seed := flag.Uint64("seed", 1, "seed of the generated requests")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds; paper_figures and serve_cold are fixed work and ignore it")
	trace := flag.Int("trace", 0, "1: a traced run reporting the per-layer metrics; 0: the end-to-end metrics")
	root := flag.String("root", ".", "repository checkout: goldens are read and run files are kept under it")
	worker := flag.Bool("worker", false, "run the workload in this process and print its raw report (the benchmark re-executes itself so)")
	workDir := flag.String("workdir", "", "worker: directory for result stores and probes")
	profile := flag.String("cpuprofile", "", "worker: write a CPU profile of the run here")
	spansOut := flag.String("spans", "", "worker: write the trace spans here")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bpbenchmark: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *worker {
		os.Exit(workerMain(*name, *seed, *seconds, *root, *workDir, *trace == 1, *profile, *spansOut))
	}

	var specs []spec
	if *name == "all" {
		specs = workloads
	} else if w, ok := specByName(*name); ok {
		specs = []spec{w}
	} else {
		fmt.Fprintf(os.Stderr, "bpbenchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ok := true
	for _, w := range specs {
		res, err := measure(w, *seed, *seconds, *root, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbenchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		data, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpbenchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// value is one metric of the JSON summary.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON summary line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure runs one workload in a worker process and derives its metrics;
// traced, it runs an untraced worker for the overhead baseline, then a
// traced one.
func measure(w spec, seed uint64, seconds float64, root string, traced bool) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), workerBudget)
	defer cancel()
	build := filepath.Join(root, ".bench_build")
	// Each worker gets a work directory of its own: a traced worker must
	// start from empty result stores exactly as the untraced one did.
	run := filepath.Join(build, fmt.Sprintf("run-%d-%s", os.Getpid(), w.name))
	defer os.RemoveAll(run)
	args := func(mode string) []string {
		return []string{"-worker", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-root", root, "-workdir", filepath.Join(run, mode)}
	}

	base, err := runWorker(ctx, args("base"))
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: base.rep.Attempted, Failed: base.rep.Failed, Metrics: map[string]value{}}
	printErrors(w.name, base.rep)
	if !traced {
		r := base.rep
		vals := map[string]float64{
			"wall_s":          base.wall.Seconds(),
			"setup_s":         median(r.Setup),
			"throughput_rps":  ratio(float64(r.Latency.N), r.TimedS),
			"latency_p50_ms":  r.Latency.P50,
			"latency_p90_ms":  r.Latency.P90,
			"latency_tail_ms": r.Latency.Tail,
			"peak_rss_mb":     base.rssMB,
		}
		for _, d := range endToEndDefs {
			res.Metrics[d.name] = value{vals[d.name], d.unit}
		}
		printMetrics(w.name, endToEndDefs, res.Metrics)
		fmt.Printf("%-14s latency: n=%d p25=%.4g p50=%.4g p75=%.4g p90=%.4g ms; tail is p%.4g with %d samples beyond\n",
			w.name, r.Latency.N, r.Latency.P25, r.Latency.P50, r.Latency.P75, r.Latency.P90, r.Latency.TailP, r.Latency.TailBeyond)
		res.Correct = res.Failed == 0
		return res, nil
	}

	traceDir := filepath.Join(build, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	tr, err := runWorker(ctx, append(args("traced"), "-trace", "1", "-cpuprofile", stem+".cpu.pprof", "-spans", stem+".spans.json"))
	if err != nil {
		return result{}, err
	}
	printErrors(w.name, tr.rep)
	res.Attempted += tr.rep.Attempted
	res.Failed += tr.rep.Failed
	vals := tr.rep.Layer
	shares, err := stageShares(stem + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	for k, v := range shares {
		vals[k] = v
	}
	// The probes and the span dump run after the workload; they are not
	// tracing overhead. A time-boxed phase lasts as long traced as untraced
	// and the traced one completes fewer operations, so the untraced timed
	// phase is scaled to the traced operation count first.
	baseWall := base.wall.Seconds() - base.rep.TimedS*(1-ratio(float64(tr.rep.Latency.N), float64(base.rep.Latency.N)))
	vals["trace.overhead_s"] = tr.wall.Seconds() - tr.rep.PostS - baseWall
	for _, d := range layerDefs {
		v, ok := vals[d.name]
		if !ok {
			return result{}, fmt.Errorf("traced run did not produce %s", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	printMetrics(w.name, layerDefs, res.Metrics)
	// Per-figure times exist only where figures run, so they are printed but
	// kept out of the summary's metric set.
	for _, f := range allFigures {
		if v, ok := vals[figureMetric(f.name)]; ok {
			fmt.Printf("%-14s %-42s %14.6g s\n", w.name, figureMetric(f.name), v)
		}
	}
	fmt.Printf("%-14s spans: %s.spans.json; profile: %s.cpu.pprof\n", w.name, stem, stem)
	res.Correct = res.Failed == 0
	return res, nil
}

func printMetrics(name string, defs []metricDef, m map[string]value) {
	for _, d := range defs {
		fmt.Printf("%-14s %-42s %14.6g %s\n", name, d.name, m[d.name].Value, d.unit)
	}
}

func printErrors(name string, r report) {
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", name, e)
	}
}

// workerRun is one finished worker process.
type workerRun struct {
	rep   report
	wall  time.Duration // exec to exit
	rssMB float64       // peak resident set
}

// runWorker re-executes this binary as a worker and waits for it to exit.
func runWorker(ctx context.Context, args []string) (workerRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return workerRun{}, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	start := time.Now()
	err = cmd.Run()
	wr := workerRun{wall: time.Since(start)}
	if err != nil {
		return wr, fmt.Errorf("worker: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		wr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err := json.Unmarshal(out.Bytes(), &wr.rep); err != nil {
		return wr, fmt.Errorf("worker report: %w", err)
	}
	return wr, nil
}

// workerMain runs one workload in this process and prints its report.
func workerMain(name string, seed uint64, seconds float64, root, workDir string, traced bool, profile, spansOut string) int {
	w, ok := specByName(name)
	if !ok || workDir == "" {
		fmt.Fprintf(os.Stderr, "bpbenchmark worker: need a known -workload and a -workdir directory\n")
		return 2
	}
	rc := &runCtx{spec: w, seed: seed, seconds: time.Duration(seconds * float64(time.Second)),
		root: root, workDir: workDir, sc: fullScale()}
	if traced {
		rc.tr, rc.capture = newTracer(), &captureStore{}
	}
	if err := execute(rc, profile); err != nil {
		fmt.Fprintf(os.Stderr, "bpbenchmark worker: %s: %v\n", name, err)
		return 1
	}
	if traced && spansOut != "" {
		if err := rc.tr.write(spansOut); err != nil {
			fmt.Fprintf(os.Stderr, "bpbenchmark worker: writing spans: %v\n", err)
			return 1
		}
	}
	rc.rep.PostS = time.Since(rc.runEnd).Seconds()
	if err := json.NewEncoder(os.Stdout).Encode(rc.rep); err != nil {
		fmt.Fprintf(os.Stderr, "bpbenchmark worker: %v\n", err)
		return 1
	}
	return 0
}

// execute runs rc's workload, CPU-profiling it into profile when set, and
// derives the per-layer metrics of a traced run.
func execute(rc *runCtx, profile string) error {
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		return err
	}
	var err error
	if profile != "" {
		f, ferr := os.Create(profile)
		if ferr != nil {
			return ferr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return perr
		}
		err = rc.spec.run(rc)
		pprof.StopCPUProfile()
		err = errors.Join(err, f.Close())
	} else {
		err = rc.spec.run(rc)
	}
	rc.runEnd = time.Now()
	if err == nil && rc.tr != nil {
		rc.rep.Layer = rc.layerMetrics()
	}
	return err
}
