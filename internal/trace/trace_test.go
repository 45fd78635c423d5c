package trace

import (
	"slices"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/program"
)

func testProg(t *testing.T) *program.Program {
	t.Helper()
	return program.MustGenerate(program.Spec{
		Name: "tracetest", Seed: 21, NumBlocks: 300, NumFuncs: 6, MeanBlockLen: 8,
		CondFrac: 0.6, JumpFrac: 0.08, CallFrac: 0.05,
		DepMean: 6,
		Behaviors: []program.BehaviorWeight{
			{Kind: program.BehaviorBiased, Weight: 0.55, PTaken: 0.95},
			{Kind: program.BehaviorGlobalCorrelated, Weight: 0.35, HistSpan: 3},
			{Kind: program.BehaviorRandom, Weight: 0.10},
		},
	})
}

// recordAndEval records n instructions of prog and evaluates every spec on
// the recorded stream, in order.
func recordAndEval(t *testing.T, prog *program.Program, n uint64, specs []bpred.Spec) []EvalResult {
	t.Helper()
	branches := Record(prog, n)
	out := make([]EvalResult, len(specs))
	for i, spec := range specs {
		out[i] = Eval(branches, spec)
	}
	return out
}

func TestRecordProducesBranchStream(t *testing.T) {
	p := testProg(t)
	out := Record(p, 100000)
	if len(out) == 0 {
		t.Fatal("no branches recorded")
	}
	// Every PC in the stream must be a conditional branch in the image.
	for i, b := range out {
		si := p.InstAt(b.PC)
		if si == nil || !si.Class.IsCondBranch() {
			t.Fatalf("record %d %+v is not a conditional branch", i, b)
		}
	}
}

func TestRecordDeterministic(t *testing.T) {
	p := testProg(t)
	if !slices.Equal(Record(p, 50000), Record(p, 50000)) {
		t.Error("identical programs produced different streams")
	}
}

func TestEvalOrdersPredictors(t *testing.T) {
	p := testProg(t)
	branches := Record(p, 400000)
	bim := Eval(branches, bpred.Bim16k).Accuracy()
	gsh := Eval(branches, bpred.Gsh16k12).Accuracy()
	tiny := Eval(branches, bpred.Bim128).Accuracy()
	if gsh <= bim {
		t.Errorf("gshare (%.4f) should beat bimodal (%.4f) on a correlated stream", gsh, bim)
	}
	if tiny >= bim {
		t.Errorf("Bim_128 (%.4f) should trail Bim_16k (%.4f)", tiny, bim)
	}
}

func TestEvalMatchesCountHeader(t *testing.T) {
	p := testProg(t)
	branches := Record(p, 30000)
	r := Eval(branches, bpred.Bim4k)
	if r.Branches != uint64(len(branches)) {
		t.Errorf("evaluated %d branches, stream has %d", r.Branches, len(branches))
	}
	if r.Accuracy() <= 0.5 {
		t.Errorf("accuracy %.4f implausible", r.Accuracy())
	}
}
