package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// laneShares reads a CPU profile with `go tool pprof` and returns each
// value of the runtime's pprof "lane" label as a share of all CPU samples
// in the profile (unlabeled samples count in the total only).
func laneShares(goBin, exe, prof string) (map[string]float64, float64, error) {
	tags, err := pprofOutput(goBin, "-tags", exe, prof)
	if err != nil {
		return nil, 0, err
	}
	top, err := pprofOutput(goBin, "-top", "-nodecount=1", exe, prof)
	if err != nil {
		return nil, 0, err
	}
	total, err := parseTotalSamples(top)
	if err != nil {
		return nil, 0, err
	}
	lanes, err := parseTags(tags, "lane")
	if err != nil {
		return nil, 0, err
	}
	shares := make(map[string]float64, len(lanes))
	for k, v := range lanes {
		if total > 0 {
			shares[k] = v / total
		}
	}
	return shares, total, nil
}

func pprofOutput(goBin string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, goBin, append([]string{"tool", "pprof"}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}

var totalSamplesRE = regexp.MustCompile(`Total samples = (\S+)`)

// parseTotalSamples extracts the profile's total sampled CPU time
// (seconds) from `go tool pprof -top` output.
func parseTotalSamples(top string) (float64, error) {
	m := totalSamplesRE.FindStringSubmatch(top)
	if m == nil {
		return 0, fmt.Errorf("pprof: no \"Total samples\" in -top output")
	}
	return parsePprofDuration(m[1])
}

var tagLineRE = regexp.MustCompile(`^\s+(\S+)\s+\(\s*[0-9.]+%\):\s+(.+?)\s*$`)

// parseTags extracts one label's values (CPU seconds per label value) from
// `go tool pprof -tags` output, whose blocks read
//
//	lane: Total 240.0ms
//	      140.0ms (58.33%): progress
//	      100.0ms (41.67%): amt-worker
//
// A profile with no samples under the label yields an empty map.
func parseTags(text, label string) (map[string]float64, error) {
	out := make(map[string]float64)
	in := false
	for _, line := range strings.Split(text, "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, label+": Total") {
			in = true
			continue
		}
		if !in {
			continue
		}
		m := tagLineRE.FindStringSubmatch(line)
		if m == nil {
			if t == "" || strings.Contains(t, ": Total") {
				break
			}
			return nil, fmt.Errorf("pprof: unexpected -tags line %q", line)
		}
		v, err := parsePprofDuration(m[1])
		if err != nil {
			return nil, err
		}
		out[m[2]] += v
	}
	return out, nil
}

// parsePprofDuration parses pprof's rendering of a sample duration
// ("240.0ms", "1.25s", "3mins", "0") into seconds.
func parsePprofDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, fmt.Errorf("pprof: bad duration %q", s)
			}
			return v * u.scale, nil
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof: bad duration %q", s)
	}
	return v, nil
}
