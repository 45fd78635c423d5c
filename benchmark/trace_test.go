package main

import (
	"errors"
	"testing"

	"bpredpower/internal/experiments"
)

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first: [10,40) covered once
		{Start: 25, End: 35},  // inside both
		{Start: 90, End: 120}, // clipped to the parent's end
		{Start: -5, End: 5},   // clipped to the parent's start
		{Start: 200, End: 300},
	}
	// Covered: [0,5) + [10,40) + [90,100) = 45.
	if got := selfTime(parent, children); got != 55 {
		t.Errorf("self time = %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func simSpans(tr *tracer) []span {
	spans, _ := tr.snapshot()
	var out []span
	for _, s := range spans {
		if s.Name == "simulate" {
			out = append(out, s)
		}
	}
	return out
}

func TestSimulationsParentByKey(t *testing.T) {
	tr := newTracer()
	a := tr.begin("POST /v1/simulate", map[simKey]bool{{"164.gzip", "Bim_4k"}: true}, 100)
	b := tr.begin("POST /v1/simulate", map[simKey]bool{{"175.vpr", "Hybrid_1"}: true}, 200)
	tr.beforeRun(a)
	tr.beforeRun(b)
	// They finish in the other order; each still finds its own request.
	tr.afterRun(experiments.Run{Benchmark: "175.vpr", Machine: "Hybrid_1", Committed: 7, Fetched: 9}, nil)
	tr.afterRun(experiments.Run{Benchmark: "164.gzip", Machine: "Bim_4k", Committed: 5, Fetched: 6}, nil)
	sims := simSpans(tr)
	if len(sims) != 2 {
		t.Fatalf("got %d simulation spans, want 2", len(sims))
	}
	if sims[0].Parent != b || sims[0].Insts != 207 || sims[0].Req != "req-2" {
		t.Errorf("vpr simulation = %+v, want parent %d with 207 instructions", sims[0], b)
	}
	if sims[1].Parent != a || sims[1].Insts != 105 {
		t.Errorf("gzip simulation = %+v, want parent %d with 105 instructions", sims[1], a)
	}
}

func TestSimulationsWithoutContextParentByKey(t *testing.T) {
	tr := newTracer()
	sweep := tr.begin("POST /v1/sweeps", map[simKey]bool{{"164.gzip", "Bim_4k"}: true}, 50)
	other := tr.begin("POST /v1/simulate", map[simKey]bool{{"175.vpr", "Bim_4k"}: true}, 50)
	tr.beforeRun(0) // a sweep job's context carries no request
	tr.afterRun(experiments.Run{Benchmark: "164.gzip", Machine: "Bim_4k"}, nil)
	if sims := simSpans(tr); len(sims) != 1 || sims[0].Parent != sweep {
		t.Errorf("orphan simulation spans = %+v, want one parented to %d (not %d)", sims, sweep, other)
	}
}

func TestFigureParentsAnySimulation(t *testing.T) {
	tr := newTracer()
	fig := tr.begin("figure Figure5", nil, 10)
	tr.beforeRun(fig)
	tr.beforeRun(fig)
	tr.afterRun(experiments.Run{Benchmark: "164.gzip", Machine: "Bim_4k"}, nil)
	tr.afterRun(experiments.Run{}, errors.New("canceled"))
	tr.end(fig)
	sims := simSpans(tr)
	if len(sims) != 1 || sims[0].Parent != fig {
		t.Errorf("simulation spans = %+v, want one under the figure; failed runs are dropped", sims)
	}
	spans, _ := tr.snapshot()
	if len(spans) != 2 {
		t.Errorf("got %d spans, want the simulation and the figure", len(spans))
	}
}

func TestRequestKeys(t *testing.T) {
	keys, warmup := requestKeys([]byte(`{"predictor":"Bim_4k","workload":"Subset7","fidelity":"full"}`))
	if len(keys) != 7 || !keys[simKey{"164.gzip", "Bim_4k"}] || warmup != experiments.Default.WarmupInsts {
		t.Errorf("simulate keys = %v warmup %d, want Subset7 × Bim_4k at full warm-up", keys, warmup)
	}
	keys, warmup = requestKeys([]byte(`{"predictors":["Bim_4k","Hybrid_1"],"workload":"175.vpr","warmup_insts":123}`))
	if len(keys) != 2 || !keys[simKey{"175.vpr", "Hybrid_1"}] || warmup != 123 {
		t.Errorf("sweep keys = %v warmup %d, want 2 keys at warm-up 123", keys, warmup)
	}
	if keys, _ := requestKeys([]byte(`not json`)); keys == nil || len(keys) != 0 {
		t.Errorf("unreadable body keys = %v, want an empty set (not the any-simulation nil)", keys)
	}
}
