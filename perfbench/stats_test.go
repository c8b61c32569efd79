package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v,%v; want %v,%v", c.n, got, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - rank(got, c.n); beyond < minBeyond {
				t.Errorf("n=%d: p%v leaves %d samples beyond, want >= %d", c.n, got, beyond, minBeyond)
			}
		}
	}
}

func TestSummarizeFlagsP99OnlyWithEnoughSamples(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(999 - i) // reversed: summarize must sort
	}
	d := summarize(xs)
	if d.P99OK {
		t.Fatalf("p99 over 999 samples leaves under %d beyond but was flagged valid", minBeyond)
	}
	if d.TailPct != 90 || d.Tail != 900 {
		t.Fatalf("tail = p%v %v, want p90 900", d.TailPct, d.Tail)
	}
	if d.P50 != 500 || d.N != 999 {
		t.Fatalf("p50 %v n %d, want 500 999", d.P50, d.N)
	}
	xs = append(xs, 1000)
	if d := summarize(xs); !d.P99OK || d.P99 != 990 {
		t.Fatalf("1000 samples: p99 %v ok %v, want 990 true", d.P99, d.P99OK)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for p, want := range map[float64]float64{0: 1, 25: 1, 26: 2, 50: 2, 75: 3, 99: 4, 100: 4} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile not 0")
	}
}

func TestRatioKeepsBase(t *testing.T) {
	r := ratio{3, 4}
	if r.Value() != 0.75 {
		t.Fatalf("ratio = %v", r.Value())
	}
	if (ratio{5, 0}).Value() != 0 {
		t.Fatal("empty base must read 0")
	}
	if k := r.scaled(1000); k.Value() != 750 || k.Den != 4 {
		t.Fatalf("scaled = %+v", k)
	}
	if math.IsNaN(ratio{}.Value()) {
		t.Fatal("0/0 is NaN")
	}
}
