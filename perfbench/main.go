// Command perfbench is the repository benchmark. One run drives one
// workload (am-stream, rpc-mix or kv-zipf) against a runtime in this
// process for a fixed time, checks every output, and prints a report
// followed by one JSON result line.
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1 the
// measured time is split: the first half runs untraced as a reference, the
// second records spans around every benchmark call into the runtime under
// a CPU profile, and the result holds the per-layer metrics plus the
// tracing overhead. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"time"

	"hpxgo/internal/core"
	"hpxgo/internal/serve"
	"hpxgo/internal/stats"
)

var epoch = time.Now()

// clock is the benchmark's monotonic time in ns since process start.
func clock() int64 { return int64(time.Since(epoch)) }

// activeTracer is non-nil only while the traced phase runs.
var activeTracer atomic.Pointer[tracer]

const (
	// loadedHostBound is how far the calibration spin may move between the
	// start and the end of an attempt before the attempt is discarded as
	// measured on a loaded host; it equals the widest end-to-end bound in
	// BENCHMARK.json (on an idle 2-vCPU VM the spin moved up to 13%).
	loadedHostBound = 0.25
	// maxAttempts bounds the retries after a loaded-host attempt.
	maxAttempts = 3
	// spanCapacity bounds the in-memory span buffer of a traced run.
	spanCapacity = 1 << 19
	drainTimeout = 30 * time.Second
)

// workloads lists the benchmark's workloads.
var workloads = []string{"am-stream", "rpc-mix", "kv-zipf"}

// Fixed workload settings. Each window is the smallest whose doubling
// moves its workload's rate_ops by less than 5% (see README.md); the
// kv-zipf window stays at most serve's default per-shard outstanding bound
// (256), so admission control never fails a request. The kv-zipf
// open-loop rate is about 5% of its closed-loop capacity on a 2-vCPU host,
// so the open loop measures latency below saturation.
const (
	amWindow = 1024
	kvKeys   = 32768
	kvRate   = 20000
	kvWindow = 128
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 21
	warmup    = 2 * time.Second
	// latencyLimitUs is the fixed latency limit for goodput_ops:
	// operations slower than this (or failed) do not count as good.
	latencyLimitUs = 5000
)

type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	goBin    string
	window   int
}

func parseParams(args []string, errOut io.Writer) (params, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var p params
	var trace int
	fs.StringVar(&p.workload, "workload", "", "am-stream, rpc-mix or kv-zipf")
	fs.Uint64Var(&p.seed, "seed", 1, "workload seed: key draws, Zipf ranks, size-class order, payload bytes")
	fs.Float64Var(&p.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&p.out, "out", filepath.Join(".bench_build", "out"), "directory for traces, profiles and result records")
	fs.StringVar(&p.goBin, "go", "go", "go command used to read the CPU profile (traced runs)")
	fs.IntVar(&p.window, "window", 0, "override the window for sweeps: am-stream messages or kv-zipf closed-loop requests in flight (0: the default)")
	if err := fs.Parse(args); err != nil {
		return p, err
	}
	if !slices.Contains(workloads, p.workload) {
		return p, fmt.Errorf("unknown workload %q (want one of %v)", p.workload, workloads)
	}
	if trace != 0 && trace != 1 {
		return p, fmt.Errorf("-trace must be 0 or 1")
	}
	if p.seconds <= 0 {
		return p, fmt.Errorf("-seconds must be positive")
	}
	if p.window < 0 {
		return p, fmt.Errorf("-window must not be negative")
	}
	p.trace = trace == 1
	return p, nil
}

// workload is one benchmark workload. drive applies load from the calling
// (driver) goroutine for d; drain stops the load, waits for in-flight
// work and returns the correctness verdict; summarize fills a phase's
// latency figures once everything has drained.
type workload interface {
	describe() string
	setup(tr *tracer, rep int) (*core.Runtime, *serve.Service, error)
	drive(d time.Duration, s *sampler) (phase, error)
	drain(timeout time.Duration) (violations uint64, desc string)
	summarize(ph *phase, limitUs float64)
	// progress reads the workload's cumulative completion counters.
	progress() point
}

func newWorkload(p params) workload {
	span := warmup + time.Duration(p.seconds*float64(time.Second)) + time.Second
	window := func(def int) int {
		if p.window > 0 {
			return p.window
		}
		return def
	}
	switch p.workload {
	case "am-stream":
		return newAMStream(p.seed, window(amWindow), span)
	case "rpc-mix":
		return newRPCMix(p.seed, span)
	default:
		return newKVZipf(p.seed, kvKeys, kvRate, window(kvWindow), span)
	}
}

type namedMetric struct {
	name  string
	value float64
	unit  string
	n     int
}

type detailDist struct {
	name, unit string
	d          dist
}

// phase is one measured stretch of load.
type phase struct {
	start, mid, end int64 // mid: kv-zipf's open/closed-loop boundary

	ops          float64 // completed operations
	closedOps    float64 // kv-zipf closed-loop completions
	closedFailed uint64
	classOps     [3]float64
	attempted    uint64
	failed       uint64

	rate         float64 // rate_ops
	payloadBytes float64 // application payload handed to the runtime
	payloadGbps  float64
	lat          dist    // P99 is the median of per-window p99s (see setLatency)
	p99All       float64 // p99 over the phase's whole windows
	p99Windows   int
	latWindows   int
	latRate      float64 // rate of the latency-measured operations
	within       float64 // share of those within the latency limit
	goodput      float64

	named   []namedMetric
	details []detailDist
	notes   []string

	series     []point // progress samples, one per sampler tick
	c0, c1     counters
	heapPeak   uint64
	pendingMax int64
	gcPauses   []float64
}

func (p *phase) seconds() float64 { return float64(p.end-p.start) / 1e9 }

// setLatency records the headline latency of the phase (µs) and goodput:
// latRate, the rate of the operations the latency samples, times the share
// of samples within the latency limit. The reported p99 is the median of
// the p99s of the phase's statWindow windows, so one stalled second does
// not decide it.
func (p *phase) setLatency(st seriesStats, latRate float64) {
	p.lat, p.p99All, p.latWindows = st.dist, st.P99, st.windows
	if st.p99n > 0 {
		p.lat.P99, p.p99Windows = st.p99w, st.p99n
	}
	p.latRate = latRate
	p.within = st.within
	p.goodput = latRate * p.within
}

func (p *phase) detail(name, unit string, d dist) {
	p.details = append(p.details, detailDist{name, unit, d})
}

// sampler runs on the driver goroutine between requests: once a
// millisecond it samples progress, the live heap and the task backlog and, while
// tracing, spawns a probe task that times the spawn lane.
type sampler struct {
	rt         *core.Runtime
	w          workload
	series     []point
	next       int64
	heapPeak   uint64
	pendingMax int64
	probes     uint64
}

func (s *sampler) tick(now int64) {
	if now < s.next {
		return
	}
	s.next = now + int64(time.Millisecond)
	pt := s.w.progress()
	pt.t = now
	s.series = append(s.series, pt)
	if h := heapBytes(); h > s.heapPeak {
		s.heapPeak = h
	}
	if p := pending(s.rt); p > s.pendingMax {
		s.pendingMax = p
	}
	if tr := activeTracer.Load(); tr != nil {
		req := s.probes
		s.probes++
		t0 := clock()
		s.rt.Locality(0).Spawn(func() { tr.record(spProbe, req, t0, clock()) })
	}
}

// measurePhase drives one phase and brackets it with counter snapshots.
func measurePhase(w workload, rt *core.Runtime, svc *serve.Service, d time.Duration) (*phase, error) {
	s := &sampler{rt: rt, w: w, series: make([]point, 0, d/time.Millisecond+16)}
	c0 := snapshotCounters(rt, svc, kvClient)
	ph, err := w.drive(d, s)
	if err != nil {
		return nil, err
	}
	pt := w.progress()
	pt.t = clock()
	ph.series = append(s.series, pt)
	ph.c0, ph.c1 = c0, snapshotCounters(rt, svc, kvClient)
	ph.heapPeak, ph.pendingMax = s.heapPeak, s.pendingMax
	ph.gcPauses = gcPausesSince(uint32(c0.NumGC))
	return &ph, nil
}

// result is one attempt's measurements.
type result struct {
	desc       string
	setup      []float64
	ref        *phase // untraced measured phase
	traced     *phase // traced phase (trace runs only)
	violations uint64
	vdesc      string
	spans      []span
	dropped    int64
	lanes      map[string]float64
	laneCPU    float64
	harness    uint64 // live heap bytes the workload's own state holds
}

// measure runs one attempt: set up setupReps times (keeping the last
// runtime), warm up, measure, drain and check.
func measure(p params) (*result, error) {
	runtime.GC()
	h0 := heapBytes()
	w := newWorkload(p)
	runtime.GC()
	res := &result{desc: w.describe(), harness: heapBytes() - h0}
	var tr *tracer
	if p.trace {
		tr = newTracer(epoch, spanCapacity)
	}
	var rt *core.Runtime
	var svc *serve.Service
	for rep := 0; rep < setupReps; rep++ {
		if rt != nil {
			rt.Shutdown()
		}
		runtime.GC()
		t0 := clock()
		var err error
		rt, svc, err = w.setup(tr, rep)
		t1 := clock()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		tr.record(spSetup, uint64(rep), t0, t1)
		res.setup = append(res.setup, float64(t1-t0)/1e9)
	}
	defer rt.Shutdown()

	if _, err := w.drive(warmup, &sampler{rt: rt, w: w}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	d := time.Duration(p.seconds * float64(time.Second))
	var err error
	if !p.trace {
		if res.ref, err = measurePhase(w, rt, svc, d); err != nil {
			return nil, err
		}
	} else {
		if res.ref, err = measurePhase(w, rt, svc, d/2); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(p.out, 0o755); err != nil {
			return nil, err
		}
		prof := profilePath(p)
		f, err := os.Create(prof)
		if err != nil {
			return nil, err
		}
		core.EnableProfilingLabels(true)
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		activeTracer.Store(tr)
		res.traced, err = measurePhase(w, rt, svc, d/2)
		activeTracer.Store(nil)
		pprof.StopCPUProfile()
		core.EnableProfilingLabels(false)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("write CPU profile: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
	}
	res.violations, res.vdesc = w.drain(drainTimeout)
	w.summarize(res.ref, latencyLimitUs)
	if res.traced != nil {
		w.summarize(res.traced, latencyLimitUs)
		res.spans = tr.recorded()
		res.dropped = tr.dropped.Load()
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		if res.lanes, res.laneCPU, err = laneShares(p.goBin, exe, profilePath(p)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func profilePath(p params) string {
	return filepath.Join(p.out, fmt.Sprintf("cpu-%s-seed%d.pprof", p.workload, p.seed))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the benchmark and returns the process exit code: 0 with a
// result, 1 on a usage or runtime error, 2 on a correctness violation, 3
// when every attempt ran on a loaded host.
func run(args []string, out, errOut io.Writer) int {
	p, err := parseParams(args, errOut)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fp := hostFingerprint()
	fmt.Fprintf(out, "host: %s\n", fp)
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		before := calibrationSpin()
		res, err := measure(p)
		after := calibrationSpin()
		if err != nil {
			fmt.Fprintln(errOut, "perfbench:", err)
			return 1
		}
		moved := spinMoved(before, after)
		fmt.Fprintf(out, "calibration spin: before %.0f ns, after %.0f ns, moved %.1f%% (bound %.0f%%)\n",
			before, after, moved*100, loadedHostBound*100)
		if res.violations > 0 {
			fmt.Fprintf(out, "CORRECTNESS VIOLATION (%s): %s\n", p.workload, res.vdesc)
			return 2
		}
		if moved > loadedHostBound {
			fmt.Fprintf(out, "loaded host: attempt %d discarded, not a result\n", attempt)
			continue
		}
		if err := report(out, p, fp, res, before, after); err != nil {
			fmt.Fprintln(errOut, "perfbench:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(out, "loaded host: the calibration spin moved beyond %.0f%% on all %d attempts; no result\n",
		loadedHostBound*100, maxAttempts)
	return 3
}

// metric is one reported value with the base it was computed from.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"-"`
}

func ratioMetric(name, unit string, r ratio) metric {
	return metric{name, r.Value(), unit, fmt.Sprintf("%.0f/%.0f", r.Num, r.Den)}
}

func countMetric(name string, v float64) metric {
	return metric{name, v, "count", "delta"}
}

func distMetric(name string, v float64, d dist) metric {
	return metric{name, v, "us", fmt.Sprintf("n=%d", d.N)}
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(ph *phase, setup []float64) []metric {
	d := ph.c1.sub(ph.c0)
	return []metric{
		{"rate_ops", ph.rate, "ops/s", fmt.Sprintf("median of 250 ms windows; n=%.0f in %.2f s", ph.ops, ph.seconds())},
		{"p50_us", ph.lat.P50, "us", fmt.Sprintf("n=%d", ph.lat.N)},
		{"p99_us", ph.lat.P99, "us", fmt.Sprintf("median of %d windows' p99; p99 of all %d windows %.2f, n=%d", ph.p99Windows, ph.latWindows, ph.p99All, ph.lat.N)},
		{"payload_gbps", ph.payloadGbps, "Gb/s", "median of 250 ms windows"},
		{"goodput_ops", ph.goodput, "ops/s", fmt.Sprintf("%.4f within limit of %d", ph.within, ph.lat.N)},
		{"setup_s", stats.Median(setup), "s", fmt.Sprintf("median of %d set-ups", len(setup))},
		ratioMetric("allocs_per_op", "count", ratio{float64(d.Mallocs), ph.ops}),
		{"heap_peak_mb", float64(ph.heapPeak) / 1e6, "MB", "max live heap after GC, 1 ms samples"},
	}
}

// perLayer derives the per-layer metrics of a traced phase; ref is the
// untraced phase of the same run, for the tracing overhead.
func perLayer(ph, ref *phase, spans []span, lanes map[string]float64) []metric {
	d := ph.c1.sub(ph.c0)
	ops := ph.ops
	wait := summarize(append(durations(spans, spSpawn), durations(spans, spProbe)...))
	pauses := summarize(append([]float64(nil), ph.gcPauses...))
	recvd := float64(d.LCI.MediumRecvd + d.LCI.PutsRecvd + d.LCI.LongRecvd)
	lookups := float64(d.Cache.Hits + d.Cache.Misses)
	pkts := float64(d.Fabric.InjectedPackets)
	return []metric{
		ratioMetric("core.inline_frac", "frac", ratio{float64(d.InlineExecuted), float64(d.ParcelsExecuted)}),
		ratioMetric("core.inline_spilled_per_kop", "1/kop", ratio{float64(d.InlineSpilled), ops}.scaled(1000)),
		countMetric("core.decode_errors", float64(d.DecodeErrors)),
		ratioMetric("amt.tasks_per_op", "1/op", ratio{float64(d.TasksExecuted), ops}),
		distMetric("amt.spawn_wait_p50_us", wait.P50, wait),
		distMetric("amt.spawn_wait_p99_us", wait.P99, wait),
		{"amt.pending_max", float64(ph.pendingMax), "count", "max of 1 ms samples"},
		ratioMetric("parcel.parcels_per_msg", "ratio", ratio{float64(d.Parcel.ParcelsSent), float64(d.Parcel.MessagesSent)}),
		countMetric("parcel.cache_exhausted", float64(d.Parcel.CacheExhausted)),
		countMetric("parcel.discarded", float64(d.Parcel.DiscardedParcels)),
		ratioMetric("parcelport.parcels_per_pkt", "ratio", ratio{float64(d.Parcel.ParcelsSent), pkts}),
		ratioMetric("lci.medium_per_op", "1/op", ratio{float64(d.LCI.MediumSent), ops}),
		ratioMetric("lci.puts_per_op", "1/op", ratio{float64(d.LCI.PutsSent), ops}),
		ratioMetric("lci.long_per_op", "1/op", ratio{float64(d.LCI.LongSent), ops}),
		ratioMetric("lci.retries_per_kop", "1/kop", ratio{float64(d.LCI.Retries), ops}.scaled(1000)),
		ratioMetric("lci.progress_per_msg", "ratio", ratio{float64(d.LCI.ProgressCalls), recvd}),
		ratioMetric("lci.unexpected_frac", "frac", ratio{float64(d.LCI.Unexpected), float64(d.LCI.MediumRecvd + d.LCI.LongRecvd)}),
		ratioMetric("fabric.pkts_per_op", "1/op", ratio{pkts, ops}),
		ratioMetric("fabric.wire_bytes_per_payload_byte", "ratio", ratio{float64(d.Fabric.InjectedBytes), ph.payloadBytes}),
		ratioMetric("fabric.backpressured_per_kpkt", "1/kpkt", ratio{float64(d.Fabric.Backpressured), pkts}.scaled(1000)),
		countMetric("fabric.retransmits", float64(d.Fabric.Retransmits)),
		ratioMetric("serve.hit_rate", "frac", ratio{float64(d.Cache.Hits), lookups}),
		ratioMetric("serve.coalesced_frac", "frac", ratio{float64(d.Client.Coalesced), lookups}),
		ratioMetric("serve.shard_calls_per_op", "1/op", ratio{float64(d.Client.ShardCalls + d.Client.Puts), ops}),
		ratioMetric("serve.evictions_per_kop", "1/kop", ratio{float64(d.Cache.Evictions), ops}.scaled(1000)),
		// Client.Shed counts backpressure and every shard's shed reply.
		ratioMetric("serve.shed_frac", "frac", ratio{float64(d.Client.Shed), ops}),
		ratioMetric("gc.cycles_per_kop", "1/kop", ratio{float64(d.NumGC), ops}.scaled(1000)),
		distMetric("gc.pause_p99_us", pauses.P99, pauses),
		{"lane.progress_cpu_frac", lanes["progress"], "frac", "share of CPU samples"},
		{"lane.amt_worker_cpu_frac", lanes["amt-worker"], "frac", "share of CPU samples"},
		{"lane.inline_cpu_frac", lanes["inline-deliver"], "frac", "share of CPU samples"},
		ratioMetric("trace.overhead_frac", "frac", ratio{ref.rate - ph.rate, ref.rate}),
	}
}

// report prints the human-readable report and, last, the JSON result.
func report(out io.Writer, p params, fp fingerprint, res *result, before, after float64) error {
	fmt.Fprintf(out, "workload %s seed %d: %s\n", p.workload, p.seed, res.desc)
	printPhase := func(label string, ph *phase) {
		fmt.Fprintf(out, "%s phase: %.2f s, %d attempted, %d failed, fail_frac %.6g\n",
			label, ph.seconds(), ph.attempted, ph.failed, failFrac(ph))
		for _, m := range ph.named {
			fmt.Fprintf(out, "  %-22s %14.6g %-7s (n=%d)\n", m.name, m.value, m.unit, m.n)
		}
		d := ph.c1.sub(ph.c0)
		fmt.Fprintf(out, "  inline lane: %d of %d parcels executed inline, %d demoted\n",
			d.InlineExecuted, d.ParcelsExecuted, d.InlineSpilled)
		for _, dd := range ph.details {
			fmt.Fprintf(out, "  %-22s %s %s\n", dd.name, dd.d, dd.unit)
		}
		for _, n := range ph.notes {
			fmt.Fprintf(out, "  note: %s\n", n)
		}
	}
	fmt.Fprintf(out, "harness: the workload's own state holds %.2f MB of live heap (latency histograms, checkers, inputs)\n",
		float64(res.harness)/1e6)
	printPhase("measured", res.ref)
	var ms []metric
	attempted, failed := res.ref.attempted, res.ref.failed
	if !p.trace {
		ms = endToEnd(res.ref, res.setup)
	} else {
		ph := res.traced
		printPhase("traced", ph)
		attempted += ph.attempted
		failed += ph.failed
		ms = perLayer(ph, res.ref, res.spans, res.lanes)
		seen := map[string]bool{}
		for _, dd := range ph.details {
			seen[dd.name] = true
		}
		for _, dd := range spanDetails(res.spans) {
			if !seen[dd.name] {
				fmt.Fprintf(out, "  %-22s %s %s\n", dd.name, dd.d, dd.unit)
			}
		}
		fmt.Fprintf(out, "  spans recorded %d (dropped %d), profiled CPU %.2f s\n", len(res.spans), res.dropped, res.laneCPU)
		path := filepath.Join(p.out, fmt.Sprintf("trace-%s-seed%d.jsonl", p.workload, p.seed))
		rec := map[string]any{"record": "counters", "host": fp, "traced_start": ph.c0, "traced_end": ph.c1,
			"reference_start": res.ref.c0, "reference_end": res.ref.c1}
		if err := writeTrace(path, res.spans, rec); err != nil {
			return err
		}
		fmt.Fprintf(out, "  trace written to %s\n", path)
	}
	fmt.Fprintf(out, "%s metrics:\n", map[bool]string{false: "end-to-end", true: "per-layer"}[p.trace])
	obj := make(map[string]metric, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		fmt.Fprintf(out, "  %-36s %14.6g %-6s (%s)\n", m.Name, m.Value, m.Unit, m.Base)
		obj[m.Name] = m
	}
	if attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, attempted, failed, obj})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func failFrac(ph *phase) float64 {
	if ph.attempted == 0 {
		return 0
	}
	return float64(ph.failed) / float64(ph.attempted)
}

// spanDetails summarizes the traced call timings that only some
// workloads produce (the per-layer JSON holds only metrics every
// workload defines).
func spanDetails(spans []span) []detailDist {
	var out []detailDist
	add := func(name, unit string, xs []float64) {
		if len(xs) > 0 {
			out = append(out, detailDist{name, unit, summarize(xs)})
		}
	}
	ns := func(xs []float64) []float64 {
		for i := range xs {
			xs[i] *= 1e3
		}
		return xs
	}
	add("core.apply_ns", "ns", ns(durations(spans, spApply)))
	add("core.deliver_us", "us", gaps(spans, spApply, spSink))
	add("core.call_issue_ns", "ns", ns(durations(spans, spCallID)))
	add("rpc.echo_us", "us", durations(spans, spEcho))
	add("amt.spawn_wait_us", "us", durations(spans, spSpawn))
	add("amt.probe_wait_us", "us", durations(spans, spProbe))
	add("serve.get_us", "us", durations(spans, spGet))
	add("serve.put_us", "us", durations(spans, spPut))
	add("setup.NewRuntime_us", "us", durations(spans, spNewRuntime))
	add("setup.serve_New_us", "us", durations(spans, spServeNew))
	add("setup.Preload_us", "us", durations(spans, spPreload))
	add("setup.Start_us", "us", durations(spans, spStart))
	return out
}
