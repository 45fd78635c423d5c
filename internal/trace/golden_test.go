package trace

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bpredpower/internal/bpred"
	"bpredpower/internal/workload"
)

// TestEvalGolden pins the evaluator bit for bit: the branch count and the
// number of correct predictions of every paper and extension configuration
// over 164.gzip's first 1M committed instructions. A change to the walker,
// the workload generator or any predictor's lookup or training shows up
// here as a changed line. On an intended change, replace
// testdata/eval.golden with the table this test prints.
func TestEvalGolden(t *testing.T) {
	bench, err := workload.ByName("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	specs := append(append([]bpred.Spec{}, bpred.PaperConfigs()...), bpred.ExtensionConfigs()...)
	var got strings.Builder
	for _, res := range recordAndEval(t, bench.Program(), 1_000_000, specs) {
		fmt.Fprintf(&got, "%s %d %d\n", res.Name, res.Branches, res.Correct)
	}
	want, err := os.ReadFile("testdata/eval.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("evaluator results differ from testdata/eval.golden; got:\n%s", got.String())
	}
}
