package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport stores rep as a baseline file and returns its path.
func writeReport(t *testing.T, rep report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareShowsBaselinelessEntries checks an entry the baseline lacks is
// printed as ungated rather than dropped, while entries in both reports keep
// the 15% gate.
func TestCompareShowsBaselinelessEntries(t *testing.T) {
	old := report{Throughput: result{NsPerOp: 300, Iterations: 10}}
	oldPath := writeReport(t, old)

	cur := report{
		Throughput:    result{NsPerOp: 310, Iterations: 10},
		ThroughputArt: result{NsPerOp: 900, Iterations: 10},
	}
	var out bytes.Buffer
	if !compareReports(&out, oldPath, cur) {
		t.Fatalf("a 3%% delta and an ungated entry failed the compare:\n%s", out.String())
	}
	var artLine string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "throughput_art") {
			artLine = l
		}
	}
	if !strings.Contains(artLine, "(no baseline; not gated)") || !strings.Contains(artLine, "900.00") {
		t.Errorf("throughput_art should print as ungated with its new number, got %q in:\n%s", artLine, out.String())
	}
	if strings.Contains(out.String(), "step") {
		t.Errorf("an entry measured in neither report should not print:\n%s", out.String())
	}

	cur.Throughput.NsPerOp = 400
	out.Reset()
	if compareReports(&out, oldPath, cur) {
		t.Errorf("a 33%% throughput regression passed the compare:\n%s", out.String())
	}
}
