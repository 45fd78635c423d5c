// Package trace records and replays committed-path conditional-branch
// streams — the repository's analogue of the paper's EIO traces ("we use
// Alpha EIO traces ... this ensures reproducible results for each benchmark
// across multiple simulations").
//
// The same guarantee comes from the program walker: a benchmark's committed
// path is a pure function of its generated program, so Record returns the
// same stream on every call and no stream is archived. Eval replays a stream
// through one predictor configuration the way SimpleScalar's sim-bpred does
// (predictor only, no pipeline timing). testdata/eval.golden pins Eval's
// results for every configuration on one benchmark, so a change to the
// walker, the generator or a predictor shows up as a diff.
package trace

import (
	"bpredpower/internal/bpred"
	"bpredpower/internal/isa"
	"bpredpower/internal/program"
)

// Branch is one committed conditional branch execution.
type Branch struct {
	// PC is the branch instruction's address.
	PC uint64
	// Taken is the resolved direction.
	Taken bool
}

// Record walks prog for n instructions and returns its committed-path
// conditional branch stream, in program order.
func Record(prog *program.Program, n uint64) []Branch {
	var out []Branch
	walker := program.NewWalker(prog)
	for i := uint64(0); i < n; i++ {
		st := walker.Step()
		if st.SI.Class == isa.ClassBranch {
			out = append(out, Branch{PC: st.SI.PC, Taken: st.Taken})
		}
	}
	return out
}

// EvalResult is one predictor's accuracy over a branch stream — the
// SimpleScalar sim-bpred methodology (predictor-only, no pipeline timing).
type EvalResult struct {
	// Name is the predictor configuration name.
	Name string
	// Branches is the number of branches evaluated.
	Branches uint64
	// Correct is the number predicted in the right direction.
	Correct uint64
}

// Accuracy returns the direction-prediction rate.
func (r EvalResult) Accuracy() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Branches)
}

// Eval replays branches through one predictor configuration, training at
// every branch (immediate update, the sim-bpred idealization: no
// speculation, so histories are always architectural). It only reads
// branches, so several Evals may share one slice concurrently.
func Eval(branches []Branch, spec bpred.Spec) EvalResult {
	pred := spec.Build()
	res := EvalResult{Name: spec.Name, Branches: uint64(len(branches))}
	// pr escapes through the interface calls below; declaring it once keeps
	// that to one heap allocation per Eval instead of one per branch.
	var pr bpred.Prediction
	for _, b := range branches {
		pr = pred.Lookup(b.PC)
		if pr.Taken == b.Taken {
			res.Correct++
		} else {
			pred.Redirect(&pr, b.Taken)
		}
		pred.Update(&pr, b.Taken)
	}
	return res
}
