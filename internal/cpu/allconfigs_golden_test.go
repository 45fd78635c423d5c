package cpu

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bpredpower/internal/bpred"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestAllConfigsGolden pins every registered predictor configuration's
// behaviour in the full pipeline: its Stats (prediction accuracy, squashes,
// wrong-path work) and a digest of its meter's activity vector after a short
// window. Several families (Static, Gselect, PAg, Alloyed) appear in no
// figure of experiments_output.txt, so without this golden a change to how
// the simulator reaches the predictor could alter them unseen. A diff here
// means simulated behaviour changed; pass -update only when that is the
// intent. Each run must also conserve ROB entries (see the check below).
func TestAllConfigsGolden(t *testing.T) {
	const window = 50000
	prog := testProgram(11)
	var buf bytes.Buffer
	for _, spec := range bpred.AllConfigs() {
		s := MustNew(prog, Options{Predictor: spec})
		s.Run(window)
		// ROB conservation: every dispatched entry has committed, been
		// squashed, or is still in flight.
		if st := s.Stats(); st.Dispatched != st.Committed+st.Squashed+uint64(s.robCount()) {
			t.Errorf("%s: Dispatched %d != Committed %d + Squashed %d + in flight %d",
				spec.Name, st.Dispatched, st.Committed, st.Squashed, s.robCount())
		}
		act, err := json.Marshal(s.Meter().Activity())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(act)
		fmt.Fprintf(&buf, "%s\n  stats %+v\n  activity %x\n", spec.Name, *s.Stats(), sum[:16])
		s.Release()
	}
	path := filepath.Join("testdata", "allconfigs.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test -run %s -update` to create it): %v", t.Name(), err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("all-config behaviour differs from %s (rerun with -update to accept):\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}
