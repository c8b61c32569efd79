package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hpxgo/internal/bench"
	"hpxgo/internal/core"
	"hpxgo/internal/serve"
)

// rpcClass is one size class of rpc-mix: chains fixed round-trip chains
// echoing size-byte payloads.
type rpcClass struct {
	name   string
	size   int
	chains int
}

// rpcClasses cover the three lci protocols: 8 B rides a medium send,
// 16 KiB a single-chunk rendezvous, 1 MiB the chunked rendezvous striped
// over both rails.
var rpcClasses = []rpcClass{
	{"8B", 8, 6},
	{"16KiB", 16 << 10, 1},
	{"1MiB", 1 << 20, 1},
}

// rpcTraceEvery samples traced round trips: a call is traced when its
// stamp (a hash) is a multiple of it, which the echo side can test too.
const rpcTraceEvery = 8

// rpcMix is the round-trip workload: CallID echo chains on default lci (no
// aggregation). The echo action is not inline-hinted, so every request and
// every reply's continuation goes through the spawn lane and futures.
type rpcMix struct {
	seed uint64

	rt      *core.Runtime
	echoID  uint32
	chains  []*rpcChain
	started bool // chains issued (driver goroutine only)

	stop     atomic.Bool
	finished atomic.Int64
	done     [3]atomic.Uint64 // completed round trips per class
	lat      [3]*latSeries    // round-trip times per class, by issue time

	mu         sync.Mutex
	violations []string
}

// rpcChain issues its next call from the previous call's Then callback, so
// a chain always has exactly one call in flight. Its argument lists and
// its callback are made once, so a call allocates nothing in the
// benchmark.
type rpcChain struct {
	m     *rpcMix
	id    uint64
	class int
	bufs  [2][]byte
	args  [2][][]byte // args[i] = {bufs[i]}
	op    uint64
	start int64 // current call's issue time
	req   uint64
	cur   []byte  // current call's payload
	tr    *tracer // non-nil when the current call is traced
	then  func([][]byte, error)
}

func newRPCMix(seed uint64, span time.Duration) *rpcMix {
	m := &rpcMix{seed: seed}
	for i := range m.lat {
		m.lat[i] = newLatSeries(span)
	}
	// The seed sets the chains' start order across the size classes and
	// every payload byte.
	rng := rand.New(rand.NewSource(int64(seed)))
	var order []int
	for c, cl := range rpcClasses {
		for k := 0; k < cl.chains; k++ {
			order = append(order, c)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i, c := range order {
		ch := &rpcChain{m: m, id: uint64(i), class: c}
		for b := range ch.bufs {
			ch.bufs[b] = make([]byte, rpcClasses[c].size)
			rng.Read(ch.bufs[b])
			ch.args[b] = [][]byte{ch.bufs[b]}
		}
		ch.then = ch.reply
		m.chains = append(m.chains, ch)
	}
	return m
}

func (m *rpcMix) describe() string {
	s := "rpc-mix: CallID echo on lci (no aggregation, echo not inline), chains"
	for _, c := range rpcClasses {
		s += fmt.Sprintf(" %dx%s", c.chains, c.name)
	}
	return s
}

func (m *rpcMix) setup(tr *tracer, rep int) (*core.Runtime, *serve.Service, error) {
	t0 := clock()
	rt, err := core.NewRuntime(core.Config{
		Localities: 2,
		Parcelport: "lci",
		Fabric:     bench.Expanse.Fabric(2),
	})
	tr.record(spNewRuntime, uint64(rep), t0, clock())
	if err != nil {
		return nil, nil, err
	}
	if m.echoID, err = rt.RegisterAction("perfbench_echo", m.echo); err != nil {
		return nil, nil, err
	}
	t1 := clock()
	err = rt.Start()
	tr.record(spStart, uint64(rep), t1, clock())
	m.rt = rt
	return rt, nil, err
}

// echo returns its argument; the first 8 bytes of every payload are the
// request's stamp, which doubles as its trace request ID.
func (m *rpcMix) echo(_ *core.Locality, args [][]byte) [][]byte {
	if tr := activeTracer.Load(); tr != nil && len(args) == 1 && len(args[0]) >= 8 {
		if req := binary.LittleEndian.Uint64(args[0]); req%rpcTraceEvery == 0 {
			t := clock()
			defer func() { tr.record(spEcho, req, t, clock()) }()
		}
	}
	return args
}

// stamp writes the op's stamp into buf: at its head and every 4 KiB, so a
// stale or misplaced chunk of an earlier op fails the echo comparison.
func (c *rpcChain) stamp(buf []byte) uint64 {
	s := mix64(c.m.seed ^ c.id<<40 ^ c.op)
	for off := 0; off+8 <= len(buf); off += 4096 {
		binary.LittleEndian.PutUint64(buf[off:], s)
	}
	return s
}

// issue sends the chain's next call, or retires the chain once stopped.
func (c *rpcChain) issue() {
	m := c.m
	if m.stop.Load() {
		m.finished.Add(1)
		return
	}
	c.cur = c.bufs[c.op&1]
	args := c.args[c.op&1]
	c.req = c.stamp(c.cur)
	c.op++
	c.tr = activeTracer.Load()
	if c.req%rpcTraceEvery != 0 {
		c.tr = nil
	}
	c.start = clock()
	f := m.rt.Locality(0).CallID(1, m.echoID, args)
	c.tr.record(spCallID, c.req, c.start, clock())
	f.Then(c.then)
}

// reply is the Then callback of the chain's current call.
func (c *rpcChain) reply(rets [][]byte, err error) {
	end := clock()
	m := c.m
	if err != nil {
		m.lat[c.class].fail(c.start)
	} else {
		if e := checkEcho(c.cur, rets); e != nil {
			m.violation(fmt.Sprintf("chain %d op %d: %v", c.id, c.op-1, e))
		}
		m.lat[c.class].record(c.start, end-c.start)
	}
	m.done[c.class].Add(1)
	if c.tr != nil {
		c.tr.record(spRPC, c.req, c.start, end)
		c.tr.record(spThen, c.req, end, clock())
	}
	c.issue()
}

func (m *rpcMix) violation(s string) {
	m.mu.Lock()
	m.violations = append(m.violations, s)
	m.mu.Unlock()
}

func (m *rpcMix) drive(d time.Duration, s *sampler) (phase, error) {
	if !m.started {
		m.started = true
		origin := clock()
		for _, l := range m.lat {
			l.origin = origin
		}
		for _, c := range m.chains {
			c.issue()
		}
	}
	start := clock()
	var d0 [3]uint64
	for i := range d0 {
		d0[i] = m.done[i].Load()
	}
	deadline := start + int64(d)
	for t := start; t < deadline; t = clock() {
		s.tick(t)
		time.Sleep(200 * time.Microsecond)
	}
	end := clock()
	ph := phase{start: start, end: end}
	for i := range d0 {
		ph.classOps[i] = float64(m.done[i].Load() - d0[i])
		ph.ops += ph.classOps[i]
	}
	return ph, nil
}

// progress counts round trips; bytes are the 1 MiB class's payload, both
// directions, and latOps the 8 B class.
func (m *rpcMix) progress() point {
	a, b, c := m.done[0].Load(), m.done[1].Load(), m.done[2].Load()
	return point{ops: a + b + c, bytes: c * 2 * uint64(rpcClasses[2].size), latOps: a}
}

func (m *rpcMix) drain(timeout time.Duration) (uint64, string) {
	m.stop.Store(true)
	deadline := time.Now().Add(timeout)
	for m.finished.Load() < int64(len(m.chains)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := uint64(len(m.violations))
	if left := int64(len(m.chains)) - m.finished.Load(); left > 0 {
		n += uint64(left)
		m.violations = append(m.violations, fmt.Sprintf("%d chains never completed their last call", left))
	}
	desc := fmt.Sprintf("%d violations", n)
	if n > 0 {
		desc += ": " + m.violations[0]
	}
	return n, desc
}

// summarize computes per-class round-trip latency over the calls issued in
// the phase; the headline latency is the 8 B class.
func (m *rpcMix) summarize(ph *phase, limitUs float64) {
	var st [3]seriesStats
	for i, l := range m.lat {
		st[i] = l.stats(ph.start, ph.end, 1e3, limitUs)
		ph.attempted += st[i].attempted()
		ph.failed += st[i].failed
	}
	rate, bytes, rate8 := windowRates(ph.series, ph.start, ph.end)
	ph.rate = rate
	ph.setLatency(st[0], rate8)
	for i, c := range rpcClasses {
		ph.payloadBytes += ph.classOps[i] * 2 * float64(c.size)
	}
	ph.payloadGbps = bytes * 8 / 1e9
	ph.named = append(ph.named,
		namedMetric{"rpc_8B_p50_us", ph.lat.P50, "us", ph.lat.N},
		namedMetric{"rpc_8B_p99_us", ph.lat.P99, "us", ph.lat.N},
		namedMetric{"rpc_16KiB_p50_us", st[1].P50, "us", st[1].N},
		namedMetric{"bulk_1MiB_gbps", ph.payloadGbps, "Gb/s", st[2].N},
	)
	ph.detail("rpc.16KiB_us", "us", st[1].dist)
	ph.detail("rpc.1MiB_us", "us", st[2].dist)
}
