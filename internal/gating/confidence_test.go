package gating

import "testing"

func TestJRSColdIsLowConfidence(t *testing.T) {
	j := NewJRS(0, 0)
	if j.HighConfidence(0x1000) {
		t.Error("cold JRS entry reported high confidence")
	}
	if j.Entries() != DefaultJRSEntries {
		t.Errorf("default entries = %d", j.Entries())
	}
}

func TestJRSBuildsConfidence(t *testing.T) {
	j := NewJRS(256, 4)
	pc := uint64(0x2000)
	for i := 0; i < 3; i++ {
		j.Train(pc, true)
		if j.HighConfidence(pc) {
			t.Fatalf("high confidence after only %d correct predictions", i+1)
		}
	}
	j.Train(pc, true)
	if !j.HighConfidence(pc) {
		t.Error("not confident after threshold correct predictions")
	}
}

func TestJRSResetsOnMispredict(t *testing.T) {
	j := NewJRS(256, 4)
	pc := uint64(0x3000)
	for i := 0; i < 10; i++ {
		j.Train(pc, true)
	}
	if !j.HighConfidence(pc) {
		t.Fatal("should be confident")
	}
	j.Train(pc, false)
	if j.HighConfidence(pc) {
		t.Error("confidence survived a misprediction")
	}
}

func TestJRSCounterSaturates(t *testing.T) {
	j := NewJRS(64, 4)
	for i := 0; i < 100; i++ {
		j.Train(0x10, true)
	}
	if j.counters[j.index(0x10)] != jrsCounterMax {
		t.Errorf("counter = %d, want %d", j.counters[j.index(0x10)], jrsCounterMax)
	}
}

func TestJRSAliasing(t *testing.T) {
	j := NewJRS(64, 2)
	a := uint64(0x100)
	b := a + 64*4 // same index
	j.Train(a, true)
	j.Train(a, true)
	if !j.HighConfidence(b) {
		t.Error("aliased PCs should share the counter (structural property)")
	}
}

func TestJRSBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two entries accepted")
		}
	}()
	NewJRS(100, 4)
}

func TestGateBuildsJRSOnlyWhenRequested(t *testing.T) {
	g := New(Config{Enabled: true, Estimator: EstimatorJRS})
	if g.JRSTable() == nil {
		t.Error("JRS estimator without table")
	}
	g = New(Config{Enabled: true, Estimator: EstimatorBothStrong})
	if g.JRSTable() != nil {
		t.Error("both-strong gate built a JRS table")
	}
	g = New(Config{Enabled: false, Estimator: EstimatorJRS})
	if g.JRSTable() != nil {
		t.Error("disabled gate built a JRS table")
	}
}

func TestEstimatorNames(t *testing.T) {
	if EstimatorBothStrong.String() != "both-strong" ||
		EstimatorJRS.String() != "jrs" ||
		EstimatorPerfect.String() != "perfect" {
		t.Error("estimator names wrong")
	}
}
