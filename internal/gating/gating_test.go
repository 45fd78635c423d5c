package gating

import "testing"

func TestDisabledGateNeverStalls(t *testing.T) {
	g := New(Config{Enabled: false})
	for i := 0; i < 10; i++ {
		g.OnFetchBranch(false)
	}
	if g.ShouldStallFetch() {
		t.Error("disabled gate stalled")
	}
	if g.InFlight() != 0 {
		t.Error("disabled gate tracked branches")
	}
}

func TestThresholdSemantics(t *testing.T) {
	// Gate when M > N.
	for _, n := range []int{0, 1, 2} {
		g := New(Config{Enabled: true, Threshold: n})
		for m := 0; m <= n; m++ {
			if g.ShouldStallFetch() {
				t.Errorf("N=%d: stalled at M=%d", n, g.InFlight())
			}
			g.OnFetchBranch(false)
		}
		if !g.ShouldStallFetch() {
			t.Errorf("N=%d: did not stall at M=%d", n, g.InFlight())
		}
	}
}

func TestHighConfidenceIgnored(t *testing.T) {
	g := New(Config{Enabled: true, Threshold: 0})
	g.OnFetchBranch(true)
	if g.ShouldStallFetch() {
		t.Error("high-confidence branch engaged the gate")
	}
}

func TestResolveReleasesGate(t *testing.T) {
	g := New(Config{Enabled: true, Threshold: 0})
	g.OnFetchBranch(false)
	if !g.ShouldStallFetch() {
		t.Fatal("gate not engaged")
	}
	g.OnRemoveBranch(false)
	if g.ShouldStallFetch() {
		t.Error("gate not released after resolve")
	}
}

func TestInFlightNeverNegative(t *testing.T) {
	g := New(Config{Enabled: true, Threshold: 0})
	g.OnRemoveBranch(false)
	g.OnRemoveBranch(false)
	if g.InFlight() != 0 {
		t.Errorf("in-flight = %d", g.InFlight())
	}
}

// The gate's only state is M, the in-flight low-confidence count: gated
// cycles and low-confidence fetches are counted once, in cpu.Stats.
func TestStatsAndReset(t *testing.T) {
	g := New(Config{Enabled: true, Threshold: 1})
	g.OnFetchBranch(false)
	g.OnFetchBranch(true)
	g.OnFetchBranch(false)
	if g.InFlight() != 2 || !g.ShouldStallFetch() {
		t.Fatalf("M = %d, stall = %v; want 2, true", g.InFlight(), g.ShouldStallFetch())
	}
	g.OnRemoveBranch(true)
	g.OnRemoveBranch(false)
	if g.InFlight() != 1 || g.ShouldStallFetch() {
		t.Errorf("M = %d, stall = %v; want 1, false", g.InFlight(), g.ShouldStallFetch())
	}
}
