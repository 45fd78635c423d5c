// Package gating implements pipeline gating (Manne, Klauser & Grunwald;
// revisited in the paper's Section 4.3): a confidence estimator classifies
// each fetched branch prediction as high or low confidence, the fetch stage
// counts in-flight low-confidence branches M, and when M exceeds the design
// threshold N the fetch stage stalls, preventing probably-mis-speculated
// instructions from entering the pipeline and wasting energy.
//
// The confidence estimator is "both strong": a hybrid predictor's prediction
// is high confidence only when both component predictions come from
// saturated counters and agree in direction. It uses the predictor's
// existing counters, so it costs no extra hardware — but it only works for
// hybrid predictors.
package gating

// Config enables gating and sets the low-confidence threshold N.
type Config struct {
	// Enabled turns pipeline gating on.
	Enabled bool
	// Threshold is N: fetch stalls while more than N low-confidence branches
	// are in flight. N=0 is the most aggressive setting (gate on any
	// low-confidence branch); the paper evaluates N = 0, 1, 2.
	Threshold int
	// Estimator selects the confidence estimation method (default
	// EstimatorBothStrong, the paper's choice; it requires a hybrid
	// predictor).
	Estimator Estimator
	// JRSEntries and JRSThreshold configure EstimatorJRS (zero selects the
	// defaults).
	JRSEntries, JRSThreshold int
}

// Gate tracks in-flight low-confidence branches and decides fetch stalls.
type Gate struct {
	cfg      Config
	jrs      *JRS
	inFlight int
}

// New builds a gate; a nil-safe disabled gate is returned for a disabled
// config too (callers may always call methods).
func New(cfg Config) *Gate {
	g := &Gate{cfg: cfg}
	if cfg.Enabled && cfg.Estimator == EstimatorJRS {
		g.jrs = NewJRS(cfg.JRSEntries, cfg.JRSThreshold)
	}
	return g
}

// Config returns the gate's configuration.
//
//bp:hotpath
func (g *Gate) Config() Config { return g.cfg }

// JRSTable returns the JRS estimator table, or nil when another estimator
// is in use (the caller trains it at commit and sizes its power unit).
//
//bp:hotpath
func (g *Gate) JRSTable() *JRS { return g.jrs }

// Enabled reports whether gating is active.
//
//bp:hotpath
func (g *Gate) Enabled() bool { return g.cfg.Enabled }

// OnFetchBranch records a fetched conditional branch with the given
// confidence estimate. Call once per fetched (speculative or not) branch.
//
//bp:hotpath
func (g *Gate) OnFetchBranch(highConfidence bool) {
	if !g.cfg.Enabled || highConfidence {
		return
	}
	g.inFlight++
}

// OnRemoveBranch records that a previously fetched low-confidence branch
// left flight (resolved or squashed).
//
//bp:hotpath
func (g *Gate) OnRemoveBranch(highConfidence bool) {
	if !g.cfg.Enabled || highConfidence {
		return
	}
	g.inFlight--
	if g.inFlight < 0 {
		g.inFlight = 0
	}
}

// ShouldStallFetch reports whether fetch must stall this cycle (M > N).
//
//bp:hotpath
func (g *Gate) ShouldStallFetch() bool {
	return g.cfg.Enabled && g.inFlight > g.cfg.Threshold
}

// InFlight returns the current low-confidence branch count M.
func (g *Gate) InFlight() int { return g.inFlight }
