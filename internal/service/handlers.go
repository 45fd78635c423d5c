package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"bpredpower/internal/bpred"
	"bpredpower/internal/cpu"
	"bpredpower/internal/experiments"
	"bpredpower/internal/resultstore"
	"bpredpower/internal/workload"
)

// maxWindowInsts caps the per-request warm-up/measure override: large enough
// for full-fidelity paper runs, small enough that one request cannot pin a
// worker for hours.
const maxWindowInsts = 5_000_000

// maxBodyBytes bounds the simulate request body.
const maxBodyBytes = 1 << 20

// maxTimeoutMS caps a request's timeout_ms: one day is beyond any deadline
// the server would grant anyway. Both /v1/simulate and /v1/sweeps reject a
// negative or larger value.
const maxTimeoutMS = 24 * 60 * 60 * 1000

// withTimeoutMS tightens ctx's deadline to ms milliseconds from now; ms == 0
// leaves it unchanged. ms must already be validated against maxTimeoutMS.
func withTimeoutMS(ctx context.Context, ms int64) (context.Context, context.CancelFunc) {
	if ms == 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

// PredictorInfo is one row of GET /v1/predictors.
type PredictorInfo struct {
	Name   string      `json:"name"`
	Class  string      `json:"class"` // "paper", "special", or "extension"
	KBits  int         `json:"kbits"`
	Tables []TableInfo `json:"tables,omitempty"`
}

// TableInfo is one hardware array of a predictor: the geometry the power
// model charges for. Tag is the per-entry tag width and is only nonzero for
// tagged tables (e.g. TAGE's partially tagged components).
type TableInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Entries int    `json:"entries"`
	Width   int    `json:"width"`
	Tag     int    `json:"tag,omitempty"`
}

// WorkloadInfo is one row of GET /v1/workloads.
type WorkloadInfo struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
}

// WorkloadsResponse lists benchmarks and the composite suite names a
// simulate request may use as its workload.
type WorkloadsResponse struct {
	Benchmarks []WorkloadInfo `json:"benchmarks"`
	Suites     []string       `json:"suites"`
}

// SimulateRequest is the body of POST /v1/simulate. Workload names either a
// single benchmark ("164.gzip") or a suite ("SPECint2000", "SPECfp2000",
// "Subset7", "All"). Fidelity picks the simulation windows ("quick" default,
// "full" = the paper's lengths); warmup_insts/measure_insts override them
// exactly, which keeps responses reproducible from the request alone.
type SimulateRequest struct {
	Predictor    string `json:"predictor"`
	Workload     string `json:"workload"`
	Fidelity     string `json:"fidelity,omitempty"`
	Banked       bool   `json:"banked,omitempty"`
	WarmupInsts  uint64 `json:"warmup_insts,omitempty"`
	MeasureInsts uint64 `json:"measure_insts,omitempty"`
	// TimeoutMS tightens (never loosens) the server's request deadline: a
	// non-negative integer of at most one day (0 = no tightening).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RunResult is one simulated (benchmark, machine) outcome.
type RunResult struct {
	Benchmark    string  `json:"benchmark"`
	Machine      string  `json:"machine"`
	Accuracy     float64 `json:"accuracy"`
	IPC          float64 `json:"ipc"`
	BpredPowerW  float64 `json:"bpred_power_w"`
	TotalPowerW  float64 `json:"total_power_w"`
	BpredEnergyJ float64 `json:"bpred_energy_j"`
	TotalEnergyJ float64 `json:"total_energy_j"`
	EnergyDelay  float64 `json:"energy_delay_js"`
	CondFreq     float64 `json:"cond_freq"`
	UncondFreq   float64 `json:"uncond_freq"`
	Committed    uint64  `json:"committed"`
	Fetched      uint64  `json:"fetched"`
}

// SimulateResponse is the body of a successful POST /v1/simulate.
type SimulateResponse struct {
	Predictor    string      `json:"predictor"`
	Workload     string      `json:"workload"`
	Fidelity     string      `json:"fidelity"`
	WarmupInsts  uint64      `json:"warmup_insts"`
	MeasureInsts uint64      `json:"measure_insts"`
	Runs         []RunResult `json:"runs"`
	Mean         RunResult   `json:"mean"`
}

// FigureResponse is the body of GET /v1/figures/{n}: the same text the CLI
// prints for that figure, produced by the same code path.
type FigureResponse struct {
	Figure       int    `json:"figure"`
	Fidelity     string `json:"fidelity"`
	WarmupInsts  uint64 `json:"warmup_insts"`
	MeasureInsts uint64 `json:"measure_insts"`
	Output       string `json:"output"`
}

func (s *Server) handlePredictors(w http.ResponseWriter, r *http.Request) {
	classOf := map[string]string{}
	for _, spec := range bpred.PaperConfigs() {
		classOf[spec.Name] = "paper"
	}
	for _, spec := range bpred.ExtensionConfigs() {
		classOf[spec.Name] = "extension"
	}
	var out []PredictorInfo
	for _, name := range bpred.ConfigNames() {
		spec, _ := bpred.ConfigByName(name)
		class, ok := classOf[name]
		if !ok {
			class = "special"
		}
		var tables []TableInfo
		for _, t := range spec.Build().Tables() {
			tables = append(tables, TableInfo{
				Name:    t.Name,
				Kind:    t.Kind.String(),
				Entries: t.Entries,
				Width:   t.Width,
				Tag:     t.Tag,
			})
		}
		out = append(out, PredictorInfo{Name: name, Class: class, KBits: spec.TotalBits() / 1024, Tables: tables})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	resp := WorkloadsResponse{Suites: []string{"SPECint2000", "SPECfp2000", "Subset7", "All"}}
	for _, b := range workload.All() {
		resp.Benchmarks = append(resp.Benchmarks, WorkloadInfo{Name: b.Name, Suite: b.Suite.String()})
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveWorkload maps a workload name to its benchmark list: a suite name
// or a single benchmark.
func resolveWorkload(name string) ([]workload.Benchmark, error) {
	switch name {
	case "SPECint2000":
		return workload.SPECint2000(), nil
	case "SPECfp2000":
		return workload.SPECfp2000(), nil
	case "Subset7":
		return workload.Subset7(), nil
	case "All":
		return workload.All(), nil
	}
	b, err := workload.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("%w (or a suite: SPECint2000, SPECfp2000, Subset7, All)", err)
	}
	return []workload.Benchmark{b}, nil
}

// runConfigFor resolves fidelity plus optional window overrides.
func runConfigFor(fidelity string, warmup, measure uint64) (experiments.RunConfig, string, error) {
	rc := experiments.Quick
	switch fidelity {
	case "", "quick":
		fidelity = "quick"
	case "full":
		rc = experiments.Default
	default:
		return rc, "", fmt.Errorf("unknown fidelity %q (have: quick, full)", fidelity)
	}
	if warmup > maxWindowInsts || measure > maxWindowInsts {
		return rc, "", fmt.Errorf("window override exceeds the %d-instruction cap", uint64(maxWindowInsts))
	}
	if warmup > 0 {
		rc.WarmupInsts = warmup
	}
	if measure > 0 {
		rc.MeasureInsts = measure
	}
	return rc, fidelity, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}

	spec, err := bpred.ByName(req.Predictor)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	bs, err := resolveWorkload(req.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rc, fidelity, err := runConfigFor(req.Fidelity, req.WarmupInsts, req.MeasureInsts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	if _, err := wireCount("timeout_ms", float64(req.TimeoutMS), maxTimeoutMS); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Like a sweep, each benchmark resolves through the shared RunCache on
	// the worker pool; the first error in index order decides the status.
	ctx, cancel := withTimeoutMS(r.Context(), req.TimeoutMS)
	defer cancel()
	opt := cpu.Options{Predictor: spec, BankedPredictor: req.Banked}
	runs := make([]experiments.Run, len(bs))
	errs := make([]error, len(bs))
	ferr := experiments.ForEachCtx(ctx, s.cfg.Parallel, len(bs), func(i int) {
		runs[i], errs[i] = s.Cache.Resolve(ctx, bs[i], opt, rc)
	})
	for _, err := range append(errs, ferr) {
		if err != nil {
			code, msg := httpStatusFor(err)
			writeError(w, code, msg)
			return
		}
	}

	resp := SimulateResponse{
		Predictor:    spec.Name,
		Workload:     req.Workload,
		Fidelity:     fidelity,
		WarmupInsts:  rc.WarmupInsts,
		MeasureInsts: rc.MeasureInsts,
		Runs:         make([]RunResult, len(runs)),
	}
	for i, run := range runs {
		resp.Runs[i] = toRunResult(run)
	}
	resp.Mean = meanResult(resp.Runs)
	writeJSON(w, http.StatusOK, resp)
}

// figureHandlers maps figure numbers to the CLI's figure printers. Figures
// 12/13 and 16/17 print together, mirroring cmd/bpexperiments; 20-23 are
// the extension studies.
var figureHandlers = map[int]func(*experiments.Harness, io.Writer){
	2:  experiments.Figure2,
	3:  func(_ *experiments.Harness, w io.Writer) { experiments.Figure3(w) },
	5:  experiments.Figure5,
	6:  experiments.Figure6,
	7:  experiments.Figure7,
	8:  experiments.Figure8,
	9:  experiments.Figure9,
	10: experiments.Figure10,
	11: func(_ *experiments.Harness, w io.Writer) { experiments.Figure11(w) },
	12: experiments.Figures12And13,
	13: experiments.Figures12And13,
	14: experiments.Figure14,
	16: experiments.Figures16And17,
	17: experiments.Figures16And17,
	19: experiments.Figure19,
	20: experiments.ExtensionConfidence,
	21: experiments.ExtensionLinePredictor,
	22: experiments.ExtensionModernPredictors,
	23: experiments.ExtensionGatingStyles,
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "figure number must be an integer")
		return
	}
	fig, ok := figureHandlers[n]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown figure %d (have 2,3,5-14,16,17,19,20-23)", n))
		return
	}
	q := r.URL.Query()
	warmup, err := parseUintParam(q.Get("warmup"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "warmup: "+err.Error())
		return
	}
	measure, err := parseUintParam(q.Get("measure"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "measure: "+err.Error())
		return
	}
	rc, fidelity, err := runConfigFor(q.Get("fidelity"), warmup, measure)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	h := &experiments.Harness{RC: rc, Parallel: s.cfg.Parallel, Ctx: r.Context(), Cache: s.Cache}
	var buf bytes.Buffer
	fig(h, &buf)
	if err := h.Err(); err != nil {
		// The buffer holds a partial figure; discard it rather than serve
		// zeros for runs that never executed.
		code, msg := httpStatusFor(err)
		writeError(w, code, msg)
		return
	}
	writeJSON(w, http.StatusOK, FigureResponse{
		Figure:       n,
		Fidelity:     fidelity,
		WarmupInsts:  rc.WarmupInsts,
		MeasureInsts: rc.MeasureInsts,
		Output:       buf.String(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var ss *resultstore.Stats
	if s.cfg.Store != nil {
		snap := s.cfg.Store.Stats()
		ss = &snap
	}
	s.metrics.WriteTo(w, s.Cache.Stats(), ss, s.cfg.MaxConcurrent)
}

func parseUintParam(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// writeJSON marshals v once and writes it with a trailing newline. Marshal
// output over structs and slices is deterministic, which is what makes
// responses byte-comparable across servers and worker counts.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func toRunResult(r experiments.Run) RunResult {
	return RunResult{
		Benchmark:    r.Benchmark,
		Machine:      r.Machine,
		Accuracy:     r.Accuracy,
		IPC:          r.IPC,
		BpredPowerW:  r.BpredPower,
		TotalPowerW:  r.TotalPower,
		BpredEnergyJ: r.BpredEnergy,
		TotalEnergyJ: r.TotalEnergy,
		EnergyDelay:  r.EnergyDelay,
		CondFreq:     r.CondFreq,
		UncondFreq:   r.UncondFreq,
		Committed:    r.Committed,
		Fetched:      r.Fetched,
	}
}

// meanResult arithmetic-means the float fields (the figures' "Average"
// column) and sums the counters.
func meanResult(rs []RunResult) RunResult {
	var m RunResult
	if len(rs) == 0 {
		return m
	}
	m.Benchmark = "mean"
	m.Machine = rs[0].Machine
	inv := 1 / float64(len(rs))
	for _, r := range rs {
		m.Accuracy += r.Accuracy * inv
		m.IPC += r.IPC * inv
		m.BpredPowerW += r.BpredPowerW * inv
		m.TotalPowerW += r.TotalPowerW * inv
		m.BpredEnergyJ += r.BpredEnergyJ * inv
		m.TotalEnergyJ += r.TotalEnergyJ * inv
		m.EnergyDelay += r.EnergyDelay * inv
		m.CondFreq += r.CondFreq * inv
		m.UncondFreq += r.UncondFreq * inv
		m.Committed += r.Committed
		m.Fetched += r.Fetched
	}
	return m
}
