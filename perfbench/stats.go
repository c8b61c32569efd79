package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hpxgo/internal/stats"
)

// minBeyond is how many samples must lie above a reported tail percentile
// for it to count: a p99 over 300 samples rests on three points and is
// noise, so the summary falls back to the highest percentile that has at
// least this many samples beyond it.
const minBeyond = 10

// tailCandidates are the tail percentiles tried, highest first.
var tailCandidates = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above its nearest-rank position, and false
// when even the median does not qualify.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if n-rank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples, clamped to [1, n]. The epsilon keeps p/100*n that is integral
// in exact arithmetic from rounding up (99.9% of 10000 is 9990).
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted (p in
// [0,100]); 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// dist summarizes one timing distribution: the median, p99 (valid only
// when at least minBeyond samples lie above it), and the highest tail
// percentile that has minBeyond samples beyond it.
type dist struct {
	N       int
	P50     float64
	P99     float64
	P99OK   bool
	TailPct float64
	Tail    float64
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs), P50: percentile(xs, 50), P99: percentile(xs, 99)}
	d.P99OK = len(xs) > 0 && len(xs)-rank(99, len(xs)) >= minBeyond
	if p, ok := tailPercentile(len(xs)); ok {
		d.TailPct, d.Tail = p, percentile(xs, p)
	}
	return d
}

func (d dist) String() string {
	s := fmt.Sprintf("p50 %.2f", d.P50)
	if d.P99OK {
		s += fmt.Sprintf(" p99 %.2f", d.P99)
	}
	if d.TailPct > 50 && !(d.P99OK && d.TailPct == 99) {
		s += fmt.Sprintf(" p%g %.2f", d.TailPct, d.Tail)
	}
	return s + fmt.Sprintf(" (n=%d)", d.N)
}

// ratio is a derived metric kept together with its base, so every
// reported ratio can be printed with it.
type ratio struct {
	Num, Den float64
}

// Value is Num/Den, 0 when the base is empty (the layer did no work).
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

// scaled multiplies the numerator (per-kop and similar units).
func (r ratio) scaled(k float64) ratio { return ratio{r.Num * k, r.Den} }

// statWindow is the length of the windows whose medians the headline
// rates and tails report. On a shared 2-vCPU host the hypervisor steals
// about 1% of CPU time in bursts of milliseconds; a whole-run p99 reads
// those bursts, while the median over 250 ms windows reads the typical
// window and moves only when most windows move.
const statWindow = int64(250 * time.Millisecond)

// point is one sample of a workload's cumulative progress counters.
type point struct {
	t          int64
	ops, bytes uint64
	latOps     uint64 // operations of the latency-measured class
}

// windowRates splits [from, to) into whole statWindow windows and returns
// the median over windows of the ops, bytes and latOps rates (per
// second), interpolating the cumulative counters at window edges. It
// falls back to the whole-range rate when the range holds no full window.
func windowRates(series []point, from, to int64) (ops, bytes, latOps float64) {
	at := func(t int64) (float64, float64, float64) {
		// Linear interpolation between the samples around t.
		i := sort.Search(len(series), func(i int) bool { return series[i].t >= t })
		if i == 0 {
			p := series[0]
			return float64(p.ops), float64(p.bytes), float64(p.latOps)
		}
		if i == len(series) {
			p := series[len(series)-1]
			return float64(p.ops), float64(p.bytes), float64(p.latOps)
		}
		a, b := series[i-1], series[i]
		f := float64(t-a.t) / float64(b.t-a.t)
		lerp := func(x, y uint64) float64 { return float64(x) + f*(float64(y)-float64(x)) }
		return lerp(a.ops, b.ops), lerp(a.bytes, b.bytes), lerp(a.latOps, b.latOps)
	}
	if len(series) == 0 || to <= from {
		return 0, 0, 0
	}
	n := int((to - from) / statWindow)
	w := statWindow
	if n == 0 {
		n, w = 1, to-from
	}
	var os, bs, ls []float64
	for k := 0; k < n; k++ {
		o0, b0, l0 := at(from + int64(k)*w)
		o1, b1, l1 := at(from + int64(k+1)*w)
		sec := float64(w) / 1e9
		os = append(os, (o1-o0)/sec)
		bs = append(bs, (b1-b0)/sec)
		ls = append(ls, (l1-l0)/sec)
	}
	return stats.Median(os), stats.Median(bs), stats.Median(ls)
}
