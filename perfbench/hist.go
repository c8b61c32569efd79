package main

import (
	"math/bits"
	"sync/atomic"
	"time"

	"hpxgo/internal/stats"
)

// The benchmark keeps no per-operation records. Each timing goes into a
// fixed-size log-linear histogram of the statWindow window its operation
// belongs to, so the harness's memory depends on the run's length, never
// on the rate it measures: heap_peak_mb reads the whole process, and a
// faster program must not read as a bigger one.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits // buckets per power of two: at most 1/64 wide
	histMaxBits = 36               // timings clamp at 2^36 ns (about 69 s)
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

// histBucket maps a duration in ns to its bucket: exact below histSub ns,
// then histSub equal buckets per power of two. Negative durations count as
// 0.
func histBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)*histSub + int(v>>e) - histSub
}

// histBounds returns bucket i's lower bound and width in ns.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i/histSub - 1
	return float64(uint64(i%histSub+histSub) << e), float64(uint64(1) << e)
}

// hist is one window's histogram; any goroutine may record into it.
type hist struct {
	counts [histBuckets]atomic.Uint32
}

// histSum is a merged, read-only histogram.
type histSum struct {
	counts [histBuckets]uint64
	n      uint64
}

func (h *histSum) add(w *hist) {
	for i := range w.counts {
		c := uint64(w.counts[i].Load())
		h.counts[i] += c
		h.n += c
	}
}

// percentile returns the nearest-rank p-th percentile in ns, placed within
// its bucket by the rank's position among the bucket's samples, so the
// estimate is continuous and within one bucket width (1/64) of the exact
// sample. 0 when empty.
func (h *histSum) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := uint64(rank(p, int(h.n)))
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= r {
			lo, w := histBounds(i)
			return lo + w*(float64(r-cum)-0.5)/float64(c)
		}
		cum += c
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// below returns the share of samples at or below limit ns, interpolating
// within the bucket that holds the limit.
func (h *histSum) below(limit float64) float64 {
	if h.n == 0 {
		return 0
	}
	var n float64
	for i, c := range h.counts {
		lo, w := histBounds(i)
		switch {
		case lo+w <= limit:
			n += float64(c)
		case lo <= limit:
			n += float64(c) * (limit - lo) / w
		}
	}
	return n / float64(h.n)
}

// dist summarizes the histogram in units of unit ns (1e3 for µs).
func (h *histSum) dist(unit float64) dist {
	n := int(h.n)
	d := dist{N: n, P50: h.percentile(50) / unit, P99: h.percentile(99) / unit}
	d.P99OK = n > 0 && n-rank(99, n) >= minBeyond
	if p, ok := tailPercentile(n); ok {
		d.TailPct, d.Tail = p, h.percentile(p)/unit
	}
	return d
}

// latSeries is one timing's record over a run: a histogram and a failure
// count per statWindow window, starting at origin. Each operation is
// attributed to a window by the time it was issued or scheduled; timings
// outside the preallocated windows are dropped.
type latSeries struct {
	origin int64
	wins   []hist
	failed []atomic.Uint32
}

// newLatSeries preallocates windows covering span from the origin that the
// caller sets before recording.
func newLatSeries(span time.Duration) *latSeries {
	n := int(int64(span)/statWindow) + 1
	return &latSeries{wins: make([]hist, n), failed: make([]atomic.Uint32, n)}
}

func (s *latSeries) window(at int64) int {
	if at < s.origin {
		return -1
	}
	if i := int((at - s.origin) / statWindow); i < len(s.wins) {
		return i
	}
	return -1
}

// record adds one timing of ns for an operation issued at at.
func (s *latSeries) record(at, ns int64) {
	if i := s.window(at); i >= 0 {
		s.wins[i].counts[histBucket(ns)].Add(1)
	}
}

// fail counts one failed operation issued at at.
func (s *latSeries) fail(at int64) {
	if i := s.window(at); i >= 0 {
		s.failed[i].Add(1)
	}
}

// span returns the whole windows inside [from, to) as the index range
// [lo, hi).
func (s *latSeries) span(from, to int64) (lo, hi int) {
	lo = int((from - s.origin + statWindow - 1) / statWindow)
	hi = int((to - s.origin) / statWindow)
	lo, hi = max(lo, 0), min(hi, len(s.wins))
	return lo, max(lo, hi)
}

// seriesStats summarizes a series over a phase.
type seriesStats struct {
	dist            // merged over the phase's whole windows
	p99w    float64 // median of the windows' p99s
	p99n    int     // windows counted for p99w
	windows int
	within  float64 // share of samples at or below the limit
	failed  uint64
}

// stats summarizes the whole windows of [from, to) in units of unit ns.
// The windowed p99 counts only windows whose p99 has minBeyond samples
// beyond it.
func (s *latSeries) stats(from, to int64, unit, limit float64) seriesStats {
	lo, hi := s.span(from, to)
	var all, one histSum
	var p99s []float64
	st := seriesStats{windows: hi - lo}
	for i := lo; i < hi; i++ {
		one = histSum{}
		one.add(&s.wins[i])
		for b, c := range one.counts {
			all.counts[b] += c
		}
		all.n += one.n
		if one.n > 0 && int(one.n)-rank(99, int(one.n)) >= minBeyond {
			p99s = append(p99s, one.percentile(99)/unit)
		}
		st.failed += uint64(s.failed[i].Load())
	}
	st.dist = all.dist(unit)
	st.p99w, st.p99n = stats.Median(p99s), len(p99s)
	st.within = all.below(limit * unit)
	return st
}

// attempted is the number of operations the summarized windows saw.
func (st seriesStats) attempted() uint64 { return uint64(st.N) + st.failed }
