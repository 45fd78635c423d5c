package main

import "testing"

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	ten := seq(10)
	for _, c := range []struct {
		p    float64
		want float64
	}{{25, 3}, {50, 5}, {75, 8}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("p50 of one sample = %g, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %g, want 0", got)
	}
}

func TestSummarizeQuartiles(t *testing.T) {
	s := summarize([]float64{8, 1, 6, 3, 5, 2, 7, 4}, 99)
	if s.N != 8 || s.P25 != 2 || s.P50 != 4 || s.P75 != 6 || s.P90 != 8 {
		t.Errorf("quartiles of 1..8 = %+v, want n=8 p25=2 p50=4 p75=6 p90=8", s)
	}
}

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		p          float64
		tail       float64
		tailBeyond int
	}{
		{1000, 99, 990, 10}, // p99 has exactly ten beyond: reported
		{999, 99, 989, 10},  // nine beyond p99: the sample with ten beyond
		{100, 90, 90, 10},
		{15, 90, 8, 7},  // never below the median
		{10, 99, 10, 0}, // ten samples or fewer: the maximum
		{1, 99, 1, 0},
	} {
		s := summarize(seq(c.n), c.p)
		if s.Tail != c.tail || s.TailBeyond != c.tailBeyond {
			t.Errorf("n=%d p%g: tail %g with %d beyond, want %g with %d", c.n, c.p, s.Tail, s.TailBeyond, c.tail, c.tailBeyond)
		}
		if s.TailBeyond < minBeyond && s.TailBeyond != 0 && s.Tail != s.P50 {
			t.Errorf("n=%d p%g: a tail with %d beyond must be the median", c.n, c.p, s.TailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 1 2 = %g, want 2", got)
	}
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median of 4 1 3 2 = %g, want 2.5", got)
	}
	if v[0] != 4 {
		t.Error("median reordered its input")
	}
}
