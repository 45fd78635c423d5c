// Package cpu is the cycle-level out-of-order processor model: a
// from-scratch implementation of the paper's simulation substrate
// (SimpleScalar sim-outorder as extended by Wattch and by the authors).
//
// The pipeline is 8 stages: fetch, decode, three extra rename/enqueue stages
// (the Wattch extension matching the Alpha 21264's depth), issue, writeback,
// and commit. The machine is configured by package config's Table 1
// defaults: an 80-entry RUU, 40-entry LSQ, 6-wide issue (4 int + 2 FP), the
// Table 1 functional unit mix and memory hierarchy.
//
// The front end models the paper's key accounting decision: the direction
// predictor and BTB are charged one lookup for *every cycle in which the
// fetch engine is active*, because they are accessed in parallel with the
// I-cache before anything is known about the fetched bits. The prediction
// probe detector (package ppd) gates exactly those charges.
//
// Execution follows an architectural oracle (package program's Walker) on
// the correct path and fetches real wrong-path instructions from the static
// code image after a misprediction, so mis-speculated work — the paper's
// central energy lever — is simulated, not approximated.
package cpu

import (
	"fmt"

	"bpredpower/internal/bpred"
	"bpredpower/internal/btb"
	"bpredpower/internal/cache"
	"bpredpower/internal/config"
	"bpredpower/internal/gating"
	"bpredpower/internal/isa"
	"bpredpower/internal/power"
	"bpredpower/internal/ppd"
	"bpredpower/internal/program"
	"bpredpower/internal/ras"
)

// Options selects the machine variant to simulate.
type Options struct {
	// Config is the processor configuration (config.Default() when zero).
	Config config.Processor
	// Predictor is the direction-predictor configuration.
	Predictor bpred.Spec
	// BankedPredictor banks the direction-predictor tables per Table 3
	// (power accounting only; banking never changes predictions).
	BankedPredictor bool
	// PPD enables the prediction probe detector in the given timing
	// scenario.
	PPD ppd.Scenario
	// Gating configures pipeline gating (requires a hybrid predictor for
	// the "both strong" confidence estimator).
	Gating gating.Config
	// OldArrayModel selects the original Wattch 1.02 array power model
	// (without column decoders) instead of the paper's extended model.
	OldArrayModel bool
	// SquarifyClosest selects Wattch's closest-to-square organization
	// instead of the paper's min-EDP squarification.
	SquarifyClosest bool
	// LinePredictor replaces the separate BTB with a 21264-style next-line
	// predictor: an untagged, line-granularity target table integrated with
	// the I-cache (Calder & Grunwald), the arrangement the paper notes as
	// the real 21264's "most important difference" from its model.
	LinePredictor bool
	// ClockGating selects the Wattch conditional-clocking style (default
	// CC3, the paper's "non-ideal aggressive clock gating").
	ClockGating power.GatingStyle
	// ChargeLookupsPerBranch is an ablation of the paper's fetch-engine
	// accounting: instead of charging one predictor + BTB lookup per active
	// fetch cycle (the paper's model — the structures are probed before the
	// fetched bits are known), charge only when a control instruction is
	// actually predicted. This understates front-end power the way Wattch
	// 1.02 did before the authors' extension.
	ChargeLookupsPerBranch bool
}

// Entry lifecycle states stored in entryStore.state.
const (
	stDispatched uint8 = iota
	stIssued
	stDone
)

// Sim is one simulated machine bound to one program.
type Sim struct {
	opt  Options
	cfg  config.Processor
	prog *program.Program

	walker *program.Walker
	pred   bpred.Predictor
	btb    *btb.BTB
	ras    *ras.RAS
	ppd    *ppd.PPD
	gate   *gating.Gate

	// pred's hot-path methods, bound once at construction as interface
	// method values. The //bp:hotpath fetch, squash and commit functions
	// call these func values: the hotpath analyzer forbids interface-method
	// calls there and sanctions calls through values bound at construction.
	predLookup   func(pc uint64) bpred.Prediction
	predUnwind   func(p *bpred.Prediction)
	predRedirect func(p *bpred.Prediction, taken bool)
	predUpdate   func(p *bpred.Prediction, taken bool)

	il1, dl1, l2 *cache.Cache
	itlb, dtlb   *cache.TLB
	mem          *cache.MainMemory

	meter *power.Meter
	pw    powerUnits

	cycle uint64

	// Fetch state.
	fetchPC         uint64
	onWrongPath     bool
	fetchHalted     bool // wrong path ran off the code image
	fetchStallUntil uint64
	fetchSeq        uint64

	// Fetch queue as a fixed-capacity structure-of-arrays ring buffer sized
	// to the front end (fetch buffer plus the per-stage decode/rename
	// latches), so steady-state fetch never allocates. fqHead indexes the
	// oldest entry; fqLen counts occupied slots.
	fq     entryStore
	fqCap  int
	fqHead int
	fqLen  int

	// ROB (RUU) as a structure-of-arrays ring sized to the next power of two
	// above RUUSize (and at least 64, so the scheduler bitmaps below are
	// whole words), so the slot map is a single AND with robMask. Occupancy
	// is still capped at cfg.RUUSize by dispatch.
	rob     entryStore
	robMask int64
	nw      int // bitmap words per ring: size/64 (a power of two)
	headID  int64
	tailID  int64

	// Scheduler state as packed per-slot bitmaps, scanned branch-free with
	// bits.TrailingZeros64 in ring-age order instead of walking every
	// in-flight entry:
	//
	//	readyBits — dispatched, all operands available, not yet issued
	//	doneBits  — completed; the contiguous run at headID is committable
	//	wheel     — completion event wheel: row (doneAt & wheelMask) holds
	//	            the slots whose results arrive that cycle
	//	wakers    — per producer slot, the consumer slots waiting on it
	//	depCount  — per consumer slot, outstanding producer count
	readyBits []uint64
	doneBits  []uint64
	wheel     []uint64
	wheelMask uint64
	wheelRows uint64
	wakers    []uint64
	depCount  []uint8

	lsqUsed  int
	regProd  [isa.NumArchRegs]int64
	divBusy  uint64 // integer divider busy-until cycle
	fdivBusy uint64 // FP divider busy-until cycle

	// lastL2Accesses snapshots the shared L2's access counter so per-cycle
	// deltas can be charged to the L2 power unit.
	lastL2Accesses uint64

	// linePred is the 21264-style next-line target table (one untagged
	// entry per I-cache line) used instead of the BTB when
	// Options.LinePredictor is set.
	linePred      []uint64
	linePredValid []bool

	stats Stats
}

// normalizeOptions applies New's defaulting — the zero Config means
// config.Default(), the zero Predictor means bpred.Hybrid1 — so that every
// consumer of an Options (New, NewMeter) resolves it the same way.
func normalizeOptions(opt Options) (Options, config.Processor) {
	cfg := opt.Config
	if cfg.RUUSize == 0 {
		cfg = config.Default()
	}
	if opt.Predictor.Name == "" {
		opt.Predictor = bpred.Hybrid1
	}
	return opt, cfg
}

// New builds a simulator for prog under opt.
func New(prog *program.Program, opt Options) (*Sim, error) {
	if prog == nil {
		return nil, fmt.Errorf("cpu: nil program")
	}
	opt, cfg := normalizeOptions(opt)
	if opt.Gating.Enabled && opt.Gating.Estimator == gating.EstimatorBothStrong && opt.Predictor.Kind != bpred.KindHybrid {
		return nil, fmt.Errorf("cpu: 'both strong' confidence estimation requires a hybrid predictor (use the JRS or perfect estimator for other kinds)")
	}

	if cfg.CommitWidth > 64 {
		return nil, fmt.Errorf("cpu: commit width %d exceeds the 64-entry done-bitmap scan", cfg.CommitWidth)
	}

	s := &Sim{
		opt:    opt,
		cfg:    cfg,
		prog:   prog,
		walker: program.NewWalker(prog),
		pred:   opt.Predictor.Build(),
		btb:    btb.New(cfg.BTBEntries, cfg.BTBWays),
		ras:    ras.New(cfg.RASEntries),
		gate:   gating.New(opt.Gating),
		mem:    &cache.MainMemory{Latency: cfg.MemLatency},
	}
	ringSize := ceilPow2(cfg.RUUSize)
	if ringSize < 64 {
		ringSize = 64 // bitmaps stay whole words; occupancy is capped below
	}
	s.rob = pooledEntryStore(ringSize)
	s.robMask = int64(ringSize - 1)
	s.nw = ringSize / 64
	s.readyBits = make([]uint64, s.nw)
	s.doneBits = make([]uint64, s.nw)
	s.wakers = make([]uint64, ringSize*s.nw)
	s.depCount = make([]uint8, ringSize)
	// The event wheel must span the longest possible issue-to-writeback
	// latency: a load missing every level plus a TLB miss, with margin for
	// the functional-unit latency on top.
	rows := ceilPow2(cfg.DL1.HitLatency + cfg.L2.HitLatency + cfg.MemLatency + cfg.TLBMissPenalty + 64)
	s.wheel = make([]uint64, rows*s.nw)
	s.wheelRows = uint64(rows)
	s.wheelMask = uint64(rows - 1)
	s.predLookup, s.predUnwind, s.predRedirect, s.predUpdate = s.pred.Lookup, s.pred.Unwind, s.pred.Redirect, s.pred.Update
	s.l2 = cache.New(cfg.L2, s.mem)
	s.il1 = cache.New(cfg.IL1, s.l2)
	s.dl1 = cache.New(cfg.DL1, s.l2)
	s.itlb = cache.NewTLB(cfg.TLBEntries, cfg.PageBytes, cfg.TLBMissPenalty)
	s.dtlb = cache.NewTLB(cfg.TLBEntries, cfg.PageBytes, cfg.TLBMissPenalty)

	if opt.LinePredictor {
		s.linePred = make([]uint64, s.il1.NumLines())
		s.linePredValid = make([]bool, s.il1.NumLines())
	}
	if opt.PPD != ppd.Off {
		s.ppd = ppd.New(s.il1.NumLines())
		s.il1.OnRefill = func(blockAddr uint64, lineIndex int) {
			hasCond, hasCtl := s.predecode(blockAddr)
			s.ppd.Fill(lineIndex, hasCond, hasCtl)
		}
	}

	if err := s.buildPowerModel(); err != nil {
		return nil, err
	}

	// The front end holds the fetch buffer plus the instructions latched in
	// the decode and extra rename/enqueue stages (DecodeWidth per stage).
	// Modelling the capacity without the per-stage latches would let
	// Little's law cap throughput at FetchBuffer / pipe-depth.
	s.fqCap = cfg.FetchBuffer + cfg.DecodeWidth*(1+cfg.ExtraStages)
	s.fq = pooledEntryStore(s.fqCap)

	s.fetchPC = prog.Entry
	for i := range s.regProd {
		s.regProd[i] = -1
	}
	return s, nil
}

// MustNew is New but panics on error.
func MustNew(prog *program.Program, opt Options) *Sim {
	s, err := New(prog, opt)
	if err != nil {
		panic(err)
	}
	return s
}

// predecode scans the I-cache line at blockAddr in the static image and
// reports whether it contains conditional branches / any control flow —
// the pre-decode information the PPD stores at refill.
func (s *Sim) predecode(blockAddr uint64) (hasCond, hasCtl bool) {
	n := s.cfg.IL1.BlockBytes / isa.InstBytes
	for i := 0; i < n; i++ {
		si := s.prog.InstAt(blockAddr + uint64(i*isa.InstBytes))
		if si == nil {
			continue
		}
		if si.Class.IsCondBranch() {
			hasCond = true
			hasCtl = true
		} else if si.Class.IsControl() {
			hasCtl = true
		}
	}
	return hasCond, hasCtl
}

// Config returns the simulated processor configuration.
func (s *Sim) Config() config.Processor { return s.cfg }

// Predictor returns the direction predictor instance.
func (s *Sim) Predictor() bpred.Predictor { return s.pred }

// Meter returns the power meter.
func (s *Sim) Meter() *power.Meter { return s.meter }

// Stats returns the accumulated statistics.
func (s *Sim) Stats() *Stats { return &s.stats }

// BTB returns the branch target buffer (for inspection).
func (s *Sim) BTB() *btb.BTB { return s.btb }

// PPDStats returns PPD probe statistics (zeroes when the PPD is off).
func (s *Sim) PPDStats() (probes, dirAvoided, btbAvoided uint64) {
	if s.ppd == nil {
		return 0, 0, 0
	}
	return s.ppd.Stats()
}

// Cycle returns the current cycle number.
func (s *Sim) Cycle() uint64 { return s.cycle }

// lineSlot maps an address to its next-line predictor entry (untagged,
// direct-mapped by cache-line address bits — aliasing is a real line
// predictor's failure mode and is modelled, not hidden).
//
//bp:hotpath
func (s *Sim) lineSlot(pc uint64) int {
	return int((pc / uint64(s.cfg.IL1.BlockBytes)) % uint64(len(s.linePred)))
}

// targetLookup consults the configured target mechanism (BTB or next-line
// predictor) for the control instruction at pc.
//
//bp:hotpath
func (s *Sim) targetLookup(pc uint64) (uint64, bool) {
	if s.linePred != nil {
		i := s.lineSlot(pc)
		if !s.linePredValid[i] {
			return 0, false
		}
		return s.linePred[i], true
	}
	return s.btb.Lookup(pc)
}

// targetUpdate trains the target mechanism at commit of a taken control
// transfer.
//
//bp:hotpath
func (s *Sim) targetUpdate(pc, target uint64) {
	if s.linePred != nil {
		i := s.lineSlot(pc)
		s.linePred[i] = target
		s.linePredValid[i] = true
		return
	}
	s.btb.Update(pc, target)
}

// ceilPow2 returns the smallest power of two >= n (and >= 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// robCount returns the number of in-flight entries.
//
//bp:hotpath
func (s *Sim) robCount() int { return int(s.tailID - s.headID) }

// runBlockCycles is the cycle-block granularity of Run: the inner loop runs
// up to this many cycles against a precomputed bound so the per-cycle
// condition is one decrement-and-test rather than two 64-bit comparisons
// against re-read fields.
const runBlockCycles = 1024

// cycleBudget returns cur + n*400 + 10000 saturated at the uint64 maximum,
// so paper-scale instruction counts (hundreds of millions and beyond) can
// never wrap the cycle limit into the past.
func cycleBudget(cur, n uint64) uint64 {
	const maxU = ^uint64(0)
	if n > (maxU-10000)/400 {
		return maxU
	}
	lim := cur + n*400 + 10000
	if lim < cur {
		return maxU
	}
	return lim
}

// Run simulates until n more instructions commit, or until the cycle limit
// of 400 cycles per requested instruction is hit — a safety net against
// pathological configurations. Hitting the limit is recorded in
// Stats.CycleLimitHit so callers can distinguish a truncated run from a
// completed one instead of silently reporting short results.
func (s *Sim) Run(n uint64) {
	target := s.stats.Committed + n
	limit := cycleBudget(s.cycle, n)
	for s.stats.Committed < target && s.cycle < limit {
		block := limit - s.cycle
		if block > runBlockCycles {
			block = runBlockCycles
		}
		s.runBlock(block, target)
	}
	if s.stats.Committed < target {
		s.stats.CycleLimitHit = true
	}
}

// RunTo simulates until the committed-instruction count reaches target (a
// no-op when already past it). Because Run's per-cycle stop checks never
// modify machine state, pausing at intermediate targets and resuming — on
// this Sim or on another one via Checkpoint/Restore — executes exactly the
// cycle sequence of one uninterrupted Run to the final target, as long as
// no leg trips Run's pathological-configuration cycle limit.
func (s *Sim) RunTo(target uint64) {
	if target > s.stats.Committed {
		s.Run(target - s.stats.Committed)
	}
}

// runBlock steps up to block cycles, stopping early once target instructions
// have committed. The cycle bound is a local countdown so the hot loop
// re-reads only the commit counter.
//
//bp:hotpath
func (s *Sim) runBlock(block, target uint64) {
	for ; block > 0 && s.stats.Committed < target; block-- {
		s.step()
	}
}

// StepCycle advances the machine exactly one cycle. It exists for
// micro-benchmarks and tests that need cycle-granular control; bulk
// simulation should use Run, which batches cycles into blocks.
func (s *Sim) StepCycle() { s.step() }

// ResetMeasurement clears statistics and accumulated energy while keeping
// all microarchitectural state warm — call after a warm-up run.
func (s *Sim) ResetMeasurement() {
	s.stats = Stats{}
	s.meter.Reset()
}

// step advances one cycle: commit and writeback/resolve see the machine
// state produced by earlier cycles, then issue, dispatch, and fetch refill
// it. Power activity is folded at the end of the cycle.
//
//bp:hotpath
func (s *Sim) step() {
	s.writebackAndResolve()
	s.commit()
	s.issue()
	s.dispatch()
	s.fetch()
	s.meter.EndCycle()
	s.stats.Cycles++
	s.cycle++
}
