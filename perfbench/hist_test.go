package main

import (
	"math"
	"sort"
	"testing"
	"time"
)

func TestHistBucketsAreContiguousAndNarrow(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 4095, 4096, 1e6, 1e9, 1<<histMaxBits - 1} {
		i := histBucket(v)
		lo, w := histBounds(i)
		if float64(v) < lo || float64(v) >= lo+w {
			t.Fatalf("%d in bucket %d = [%v, %v)", v, i, lo, lo+w)
		}
		if w > 1 && w/lo > 1.0/histSub+1e-12 {
			t.Fatalf("bucket %d width %v at %v is wider than 1/%d", i, w, lo, histSub)
		}
		if i < prev {
			t.Fatalf("bucket order broken at %d", v)
		}
		prev = i
	}
	for i := 1; i < histBuckets; i++ {
		lo, _ := histBounds(i)
		plo, pw := histBounds(i - 1)
		if plo+pw != lo {
			t.Fatalf("gap between buckets %d and %d", i-1, i)
		}
	}
	if histBucket(-5) != 0 || histBucket(math.MaxInt64) != histBuckets-1 {
		t.Fatal("out-of-range values not clamped")
	}
}

func TestHistPercentileTracksExactSamples(t *testing.T) {
	var xs []float64
	var h hist
	x := uint64(12345)
	for i := 0; i < 20000; i++ {
		x = mix64(x)
		v := 1000 + float64(x%2_000_000) // 1 µs .. 2 ms
		xs = append(xs, v)
		h.counts[histBucket(int64(v))].Add(1)
	}
	var s histSum
	s.add(&h)
	sort.Float64s(xs)
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := percentile(xs, p)
		if got := s.percentile(p); math.Abs(got-exact)/exact > 1.0/histSub {
			t.Errorf("p%g = %v, exact %v", p, got, exact)
		}
	}
	if got := s.below(1e6); math.Abs(got-0.5) > 0.01 {
		t.Errorf("share below 1 ms = %v, want about 0.5", got)
	}
}

func TestLatSeriesWindowedP99IsMedianOfWindows(t *testing.T) {
	// Three windows of 1000 samples; window 1 holds a burst of slow
	// samples that a p99 over all windows reports.
	s := newLatSeries(3 * time.Duration(statWindow))
	s.origin = 1000
	for w := int64(0); w < 3; w++ {
		for i := int64(0); i < 1000; i++ {
			v := 100 + i%100
			if w == 1 && i%10 == 0 {
				v = 1e6
			}
			s.record(s.origin+w*statWindow+i, v)
		}
	}
	s.fail(s.origin + statWindow)
	st := s.stats(s.origin, s.origin+3*statWindow, 1, 0)
	if st.windows != 3 || st.p99n != 3 || st.N != 3000 || st.failed != 1 || st.attempted() != 3001 {
		t.Fatalf("stats %+v", st)
	}
	if st.p99w < 198 || st.p99w > 200 {
		t.Fatalf("windowed p99 = %v, want about 199 (median of 199, 1e6, 199)", st.p99w)
	}
	if st.P99 < 9e5 {
		t.Fatalf("p99 over all windows = %v, want the burst", st.P99)
	}
	// Only whole windows count: a phase starting inside window 0 drops it.
	if st := s.stats(s.origin+1, s.origin+3*statWindow, 1, 0); st.windows != 2 || st.N != 2000 {
		t.Fatalf("partial window counted: %+v", st)
	}
	// Windows too small for a p99 with minBeyond samples beyond are skipped.
	sparse := newLatSeries(3 * time.Duration(statWindow))
	for w := int64(0); w < 3; w++ {
		for i := int64(0); i < 500; i++ {
			sparse.record(w*statWindow+i, 5)
		}
	}
	if st := sparse.stats(0, 3*statWindow, 1, 0); st.p99n != 0 {
		t.Fatalf("sparse windows used: %d", st.p99n)
	}
	// Timings outside the preallocated windows are dropped.
	s.record(s.origin-1, 5)
	s.record(s.origin+int64(len(s.wins))*statWindow, 5)
	if st := s.stats(0, math.MaxInt64/2, 1, 0); st.N != 3000 {
		t.Fatalf("out-of-range timing kept: n=%d", st.N)
	}
}

func TestLatSeriesRecordDoesNotAllocate(t *testing.T) {
	s := newLatSeries(time.Second)
	if n := testing.AllocsPerRun(1000, func() { s.record(10, 12345); s.fail(10) }); n != 0 {
		t.Fatalf("record allocates %v per call", n)
	}
}
