package main

import (
	"math"
	"testing"
)

const tagsSample = ` lane: Total 2.40s
       1.40s (58.33%): progress
     900.0ms (37.50%): amt-worker
     100.0ms ( 4.17%): inline-deliver

 sched: Total 900.0ms
     500.0ms (55.56%): locality-0
     400.0ms (44.44%): locality-1
`

func TestParseTags(t *testing.T) {
	got, err := parseTags(tagsSample, "lane")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"progress": 1.4, "amt-worker": 0.9, "inline-deliver": 0.1}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	sched, err := parseTags(tagsSample, "sched")
	if err != nil || len(sched) != 2 || math.Abs(sched["locality-1"]-0.4) > 1e-9 {
		t.Fatalf("sched = %v, %v", sched, err)
	}
	none, err := parseTags("", "lane")
	if err != nil || len(none) != 0 {
		t.Fatalf("empty output: %v %v", none, err)
	}
	if _, err := parseTags(" lane: Total 1s\n   garbage line\n", "lane"); err == nil {
		t.Fatal("malformed tag line accepted")
	}
}

func TestParseTotalSamples(t *testing.T) {
	top := "File: perfbench\nType: cpu\nDuration: 5.01s, Total samples = 8.20s (163.67%)\nShowing nodes ...\n"
	if v, err := parseTotalSamples(top); err != nil || math.Abs(v-8.2) > 1e-9 {
		t.Fatalf("total = %v, %v", v, err)
	}
	if _, err := parseTotalSamples("no header"); err == nil {
		t.Fatal("missing header accepted")
	}
}

func TestParsePprofDuration(t *testing.T) {
	for s, want := range map[string]float64{"0": 0, "10ms": 0.01, "1.5s": 1.5, "2mins": 120, "250us": 250e-6, "7ns": 7e-9} {
		got, err := parsePprofDuration(s)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("%q = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parsePprofDuration("fast"); err == nil {
		t.Error("bad duration accepted")
	}
}
