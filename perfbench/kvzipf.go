package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hpxgo/internal/bench"
	"hpxgo/internal/core"
	"hpxgo/internal/serve"
)

// kvZipf loads the serving tier: a client on locality 0, shard owners on
// localities 1 and 2, aggregation on. Keys are Zipf(1.2) over a keyspace
// larger than the client's cache, 95% GET and 5% PUT. Each drive runs an
// open-loop phase at a fixed offered rate (latency from the scheduled
// arrival) and then a closed-loop phase with a fixed window (capacity).
type kvZipf struct {
	seed    uint64
	keys    int
	rate    float64 // open-loop offered ops/s
	winLen  int     // closed-loop requests in flight
	getFrac float64

	rt     *core.Runtime
	svc    *serve.Service
	cl     *serve.Client
	names  []string
	perm   []int // Zipf rank -> key index, drawn from the seed
	chk    *kvChecker
	rng    *rand.Rand
	zipf   *rand.Zipf
	drives int // drive calls so far; seeds the closed-loop chains

	reqID        atomic.Uint64
	inflight     atomic.Int64
	closedDone   atomic.Uint64
	closedFailed atomic.Uint64
	closedOK     atomic.Uint64
	stop         atomic.Bool

	// Open-loop timings, by scheduled arrival: the request from arrival
	// to completion, the serve call alone (GET and PUT), and the
	// generator's lateness.
	open, get, put, late *latSeries

	mu         sync.Mutex
	free       []*kvReq // idle open-loop requests
	violations []string
}

// kvReq is one request. Requests are reused (open-loop ones through the
// free list, closed-loop ones by their chain) and bind their task function
// once, so issuing a request allocates nothing in the benchmark.
type kvReq struct {
	k            *kvZipf
	key          int
	put          bool
	due, spawnAt int64
	id           uint64
	tr           *tracer
	val          []byte // PUT value buffer
	run          func()

	// Closed-loop chains only: the chain's own draw sequence.
	closed bool
	rng    *rand.Rand
	zipf   *rand.Zipf
}

const (
	kvClient     = 0
	kvZipfS      = 1.2
	kvValueBytes = recordBytes
	// Traced runs record one in kvOpenTraceEvery open-loop and one in
	// kvClosedTraceEvery closed-loop requests, so the span buffer spans the
	// whole traced phase.
	kvOpenTraceEvery   = 4
	kvClosedTraceEvery = 64
)

func newKVZipf(seed uint64, keys int, rate float64, winLen int, span time.Duration) *kvZipf {
	k := &kvZipf{seed: seed, keys: keys, rate: rate, winLen: winLen, getFrac: 0.95}
	k.open, k.get, k.put, k.late = newLatSeries(span), newLatSeries(span), newLatSeries(span), newLatSeries(span)
	k.rng = rand.New(rand.NewSource(int64(seed)))
	k.perm = k.rng.Perm(keys)
	k.zipf = rand.NewZipf(k.rng, kvZipfS, 1, uint64(keys-1))
	k.chk = newKVChecker(seed, keys)
	k.names = serve.KeySet(keys)
	return k
}

func (k *kvZipf) describe() string {
	return fmt.Sprintf("kv-zipf: serve client on 0, owners 1+2, lci+agg, Zipf(%.1f) over %d keys, %.0f%% GET; open loop %.0f ops/s, closed loop window %d",
		kvZipfS, k.keys, k.getFrac*100, k.rate, k.winLen)
}

func (k *kvZipf) setup(tr *tracer, rep int) (*core.Runtime, *serve.Service, error) {
	t0 := clock()
	rt, err := core.NewRuntime(core.Config{
		Localities:  3,
		Parcelport:  "lci",
		Aggregation: true,
		Fabric:      bench.Expanse.Fabric(3),
	})
	tr.record(spNewRuntime, uint64(rep), t0, clock())
	if err != nil {
		return nil, nil, err
	}
	t1 := clock()
	svc, err := serve.New(rt, serve.Config{Owners: []int{1, 2}})
	tr.record(spServeNew, uint64(rep), t1, clock())
	if err != nil {
		return nil, nil, err
	}
	t2 := clock()
	val := make([]byte, kvValueBytes)
	for i, name := range k.names {
		k.chk.value(val, i, 0)
		svc.Preload([]string{name}, val)
	}
	tr.record(spPreload, uint64(rep), t2, clock())
	t3 := clock()
	err = rt.Start()
	tr.record(spStart, uint64(rep), t3, clock())
	k.rt, k.svc, k.cl = rt, svc, svc.Client(kvClient)
	return rt, svc, err
}

// draw picks the next request: a Zipf-ranked key and GET or PUT.
func (k *kvZipf) draw(rng *rand.Rand, z *rand.Zipf) (key int, put bool) {
	return k.perm[z.Uint64()], rng.Float64() >= k.getFrac
}

func (k *kvZipf) newReq() *kvReq {
	r := &kvReq{k: k, val: make([]byte, kvValueBytes)}
	r.run = r.exec
	return r
}

// exec runs the request as a task on the client locality. A closed-loop
// request then issues its chain's next request, which inherits its
// in-flight count; an open-loop one returns to the free list.
func (r *kvReq) exec() {
	k := r.k
	failed := k.do(r)
	if r.closed {
		if failed {
			k.closedFailed.Add(1)
		} else {
			k.closedOK.Add(1)
		}
		k.closedDone.Add(1)
		if !k.stop.Load() {
			k.next(r)
			return
		}
	}
	k.inflight.Add(-1)
	if !r.closed {
		k.mu.Lock()
		k.free = append(k.free, r)
		k.mu.Unlock()
	}
}

// do runs one request and reports whether it failed. Only open-loop
// requests are timed: their latency is measured from the scheduled
// arrival.
func (k *kvZipf) do(r *kvReq) bool {
	start := clock()
	r.tr.record(spSpawn, r.id, r.spawnAt, start)
	var call, ret int64
	var err error
	if r.put {
		p := k.chk.beginPut(r.key)
		k.chk.value(r.val, r.key, p.seq)
		call = clock()
		err = k.cl.Put(k.names[r.key], r.val)
		ret = clock()
		r.tr.record(spPut, r.id, call, ret)
		k.chk.endPut(p, err == nil)
		if err != nil {
			// A call that timed out may still reference its value.
			r.val = make([]byte, kvValueBytes)
		}
	} else {
		floor := k.chk.beginGet(r.key)
		call = clock()
		var val []byte
		var found bool
		val, found, err = k.cl.Get(k.names[r.key])
		ret = clock()
		r.tr.record(spGet, r.id, call, ret)
		if err == nil {
			if e := k.chk.checkGet(r.key, floor, val, found); e != nil {
				k.violation(e.Error())
			}
		}
	}
	end := clock()
	r.tr.record(spRequest, r.id, r.due, end)
	if !r.closed {
		switch {
		case err != nil:
			k.open.fail(r.due)
		case r.put:
			k.put.record(r.due, ret-call)
		default:
			k.get.record(r.due, ret-call)
		}
		if err == nil {
			k.open.record(r.due, end-r.due)
		}
	}
	return err != nil
}

func (k *kvZipf) violation(s string) {
	k.mu.Lock()
	k.violations = append(k.violations, s)
	k.mu.Unlock()
}

// spawn issues r as a task on the client locality; the caller has counted
// it in flight.
func (k *kvZipf) spawn(r *kvReq) {
	r.id = k.reqID.Add(1)
	r.tr = activeTracer.Load()
	if r.closed && r.id%kvClosedTraceEvery != 0 || !r.closed && r.id%kvOpenTraceEvery != 0 {
		r.tr = nil
	}
	r.spawnAt = clock()
	k.rt.Locality(kvClient).Spawn(r.run)
}

// next issues a closed-loop chain's next request, due now.
func (k *kvZipf) next(r *kvReq) {
	r.key, r.put = k.draw(r.rng, r.zipf)
	r.due = clock()
	k.spawn(r)
}

func (k *kvZipf) drive(d time.Duration, s *sampler) (phase, error) {
	start := clock()
	if k.drives == 0 {
		k.open.origin, k.get.origin, k.put.origin, k.late.origin = start, start, start, start
	}
	mid := start + int64(d)/2
	end := start + int64(d)

	// Open loop: arrivals on a fixed schedule, issued by this goroutine.
	interval := 1e9 / k.rate
	for i := 0; ; i++ {
		due := start + int64(float64(i)*interval)
		if due >= mid {
			break
		}
		// Wait for the arrival by yielding, not sleeping: a timer wake-up
		// on a busy 2-CPU host lands hundreds of µs late, and that
		// lateness, not the system's, would set the tail.
		now := clock()
		for ; now < due; now = clock() {
			s.tick(now)
			if due-now > int64(2*time.Millisecond) {
				time.Sleep(time.Duration(due-now) - time.Millisecond)
			} else {
				runtime.Gosched()
			}
		}
		k.late.record(due, now-due)
		k.mu.Lock()
		var r *kvReq
		if n := len(k.free); n > 0 {
			r, k.free = k.free[n-1], k.free[:n-1]
		}
		k.mu.Unlock()
		if r == nil {
			r = k.newReq()
		}
		r.key, r.put = k.draw(k.rng, k.zipf)
		r.due = due
		k.inflight.Add(1)
		k.spawn(r)
	}

	// Closed loop: a fixed window of request chains.
	for clock() < mid {
		time.Sleep(50 * time.Microsecond)
	}
	k.drives++
	k.stop.Store(false)
	c0, f0 := k.closedDone.Load(), k.closedFailed.Load()
	closedStart := clock()
	for i := 0; i < k.winLen; i++ {
		r := k.newReq()
		r.closed = true
		r.rng = rand.New(rand.NewSource(int64(mix64(k.seed ^ uint64(k.drives)<<32 ^ uint64(i)))))
		r.zipf = rand.NewZipf(r.rng, kvZipfS, 1, uint64(k.keys-1))
		k.inflight.Add(1)
		k.next(r)
	}
	for t := clock(); t < end; t = clock() {
		s.tick(t)
		time.Sleep(200 * time.Microsecond)
	}
	closedEnd := clock()
	c1, f1 := k.closedDone.Load(), k.closedFailed.Load()
	k.stop.Store(true)
	for k.inflight.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ph := phase{start: start, mid: closedStart, end: closedEnd}
	ph.closedOps = float64(c1 - c0)
	ph.attempted = c1 - c0
	ph.failed = f1 - f0
	ph.closedFailed = f1 - f0
	return ph, nil
}

// progress counts successful closed-loop completions, each moving one
// value: a request failed fast by admission control is not capacity.
func (k *kvZipf) progress() point {
	n := k.closedOK.Load()
	return point{ops: n, bytes: n * kvValueBytes}
}

func (k *kvZipf) drain(timeout time.Duration) (uint64, string) {
	k.stop.Store(true)
	deadline := time.Now().Add(timeout)
	for k.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	n, desc := k.chk.violations()
	if left := k.inflight.Load(); left > 0 {
		n += uint64(left)
		desc += fmt.Sprintf(", %d requests never completed", left)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.violations) > 0 {
		desc += ": " + k.violations[0]
	}
	return n, desc
}

// summarize computes the open-loop latency (from each request's scheduled
// arrival), the closed-loop capacity, and the open loop's serve call
// timings.
func (k *kvZipf) summarize(ph *phase, limitUs float64) {
	open := k.open.stats(ph.start, ph.mid, 1e3, limitUs)
	ph.attempted += open.attempted()
	ph.failed += open.failed
	openOK := float64(open.N)
	openRate := 0.0
	if open.windows > 0 {
		openRate = openOK / (float64(open.windows) * float64(statWindow) / 1e9)
	}
	closedOK := ph.closedOps - float64(ph.closedFailed)
	ph.ops = openOK + ph.closedOps
	rate, bytes, _ := windowRates(ph.series, ph.mid, ph.end)
	ph.rate = rate
	ph.setLatency(open, openRate)
	ph.payloadBytes = (openOK + closedOK) * kvValueBytes
	ph.payloadGbps = bytes * 8 / 1e9
	dl := k.late.stats(ph.start, ph.mid, 1e3, 0).dist
	ph.named = append(ph.named,
		namedMetric{"kv_p50_us", ph.lat.P50, "us", ph.lat.N},
		namedMetric{"kv_p99_us", ph.lat.P99, "us", ph.lat.N},
		namedMetric{"kv_goodput_ops", ph.goodput, "ops/s", ph.lat.N},
		namedMetric{"kv_capacity_ops", ph.rate, "ops/s", int(ph.closedOps)},
		namedMetric{"loadgen.late_p99_us", dl.P99, "us", dl.N},
	)
	ph.detail("serve.get_us", "us", k.get.stats(ph.start, ph.mid, 1e3, 0).dist)
	ph.detail("serve.put_us", "us", k.put.stats(ph.start, ph.mid, 1e3, 0).dist)
	ph.detail("loadgen.late_us", "us", dl)
}
