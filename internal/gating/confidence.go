package gating

// Estimator selects the branch-confidence estimation method used to drive
// pipeline gating.
//
// The paper evaluates "both strong" and notes (Section 4.3) that "it may be
// that the impact of predictor accuracy on pipeline gating would be
// stronger for other confidence estimators ... that are separate from the
// predictor. This warrants further study." The JRS and Perfect estimators
// implement that study.
type Estimator uint8

const (
	// EstimatorBothStrong marks a prediction high-confidence when both
	// hybrid components predict from saturated counters and agree (Manne et
	// al.). Free of extra hardware but only defined for hybrid predictors.
	EstimatorBothStrong Estimator = iota
	// EstimatorJRS uses a separate table of resetting counters (Jacobsen,
	// Rotenberg & Smith): a branch is high-confidence once it has been
	// predicted correctly JRSThreshold times in a row. Works with any
	// predictor at the cost of a small table.
	EstimatorJRS
	// EstimatorPerfect is the oracle: a prediction is high-confidence
	// exactly when it is correct. An upper bound for gating studies.
	EstimatorPerfect
)

var estimatorNames = [...]string{
	EstimatorBothStrong: "both-strong",
	EstimatorJRS:        "jrs",
	EstimatorPerfect:    "perfect",
}

// String returns the estimator name.
func (e Estimator) String() string {
	if int(e) < len(estimatorNames) {
		return estimatorNames[e]
	}
	return "estimator(?)"
}

// Default JRS parameters: a 1K-entry table of 4-bit resetting counters and
// a threshold in the range Jacobsen et al. found effective.
const (
	DefaultJRSEntries   = 1024
	DefaultJRSThreshold = 8
	jrsCounterMax       = 15
)

// JRS is the resetting-counter confidence table.
type JRS struct {
	counters  []uint8
	mask      uint64
	threshold uint8
}

// NewJRS builds a JRS estimator table; entries must be a power of two
// (zero selects the defaults).
func NewJRS(entries, threshold int) *JRS {
	if entries <= 0 {
		entries = DefaultJRSEntries
	}
	if entries&(entries-1) != 0 {
		panic("gating: JRS entries must be a power of two")
	}
	if threshold <= 0 {
		threshold = DefaultJRSThreshold
	}
	if threshold > jrsCounterMax {
		threshold = jrsCounterMax
	}
	return &JRS{
		counters:  make([]uint8, entries),
		mask:      uint64(entries - 1),
		threshold: uint8(threshold),
	}
}

//bp:hotpath
func (j *JRS) index(pc uint64) int { return int((pc >> 2) & j.mask) }

// HighConfidence reports whether the branch at pc has accumulated enough
// consecutive correct predictions.
//
//bp:hotpath
func (j *JRS) HighConfidence(pc uint64) bool {
	return j.counters[j.index(pc)] >= j.threshold
}

// Train updates the counter at commit: increment (saturating) on a correct
// prediction, reset on a misprediction.
//
//bp:hotpath
func (j *JRS) Train(pc uint64, correct bool) {
	i := j.index(pc)
	if !correct {
		j.counters[i] = 0
		return
	}
	if j.counters[i] < jrsCounterMax {
		j.counters[i]++
	}
}

// Entries returns the table size (for the power model).
func (j *JRS) Entries() int { return len(j.counters) }
