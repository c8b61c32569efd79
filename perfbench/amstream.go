package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"hpxgo/internal/bench"
	"hpxgo/internal/core"
	"hpxgo/internal/serve"
)

// amStream is the message-rate workload (paper §4.1): one-way 64 B
// ApplyID from locality 0 to an inline-hinted sink on locality 1 over lci
// with aggregation, with a fixed window of messages in flight. The window
// reads the sink's arrival counter directly (same process), so flow
// control adds no messages.
type amStream struct {
	seed   uint64
	winLen uint64

	rt     *core.Runtime
	sinkID uint32
	chk    *streamChecker

	received atomic.Uint64
	w        window
	buf      []byte
	args     [][]byte

	// Every amSampleEvery-th message is timed. Its timestamps go through
	// a ring of slots that the driver harvests into the latency series
	// before reusing a slot, and once more when the stream drains.
	slots                 [amSlots]amSlot
	untimed               uint64 // timed messages not arrived at harvest
	oneWay, deliver, call *latSeries
}

// amSlot holds one timed message's timestamps; seq is its sequence plus
// one, 0 when the slot is free.
type amSlot struct {
	seq             atomic.Uint64
	call, ret, sink atomic.Int64
}

const (
	// amSampleEvery is the timing sample interval; sampling keeps the two
	// clock reads per timed message off the common path.
	amSampleEvery = 64
	// amSlots timed messages span 16384 messages, far more than the
	// window holds in flight.
	amSlots = 256
	// amRing is the sequence checker's ring: a message overtaken by this
	// many later ones counts as lost.
	amRing = 1 << 18
)

func newAMStream(seed uint64, winLen int, span time.Duration) *amStream {
	return &amStream{
		seed:    seed,
		winLen:  uint64(winLen),
		chk:     newStreamChecker(seed, amRing),
		buf:     make([]byte, recordBytes),
		oneWay:  newLatSeries(span),
		deliver: newLatSeries(span),
		call:    newLatSeries(span),
	}
}

func (a *amStream) describe() string {
	return fmt.Sprintf("am-stream: 64 B ApplyID 0->1, lci+agg, inline sink, window %d", a.winLen)
}

func (a *amStream) setup(tr *tracer, rep int) (*core.Runtime, *serve.Service, error) {
	t0 := clock()
	rt, err := core.NewRuntime(core.Config{
		Localities:  2,
		Parcelport:  "lci",
		Aggregation: true,
		Fabric:      bench.Expanse.Fabric(2),
	})
	tr.record(spNewRuntime, uint64(rep), t0, clock())
	if err != nil {
		return nil, nil, err
	}
	a.sinkID, err = rt.RegisterInlineAction("perfbench_sink", a.sink)
	if err != nil {
		return nil, nil, err
	}
	t1 := clock()
	err = rt.Start()
	tr.record(spStart, uint64(rep), t1, clock())
	a.rt = rt
	return rt, nil, err
}

// sink is the receiving action: check the payload, stamp timed messages,
// count the arrival.
func (a *amStream) sink(_ *core.Locality, args [][]byte) [][]byte {
	t := clock()
	var seq uint64
	ok := len(args) == 1
	if ok {
		seq, ok = a.chk.deliver(args[0])
	} else {
		a.chk.corrupt.Add(1)
	}
	if ok && seq%amSampleEvery == 0 {
		if sl := &a.slots[seq/amSampleEvery%amSlots]; sl.seq.Load() == seq+1 {
			sl.sink.Store(t)
		}
		if tr := activeTracer.Load(); tr != nil {
			tr.record(spSink, seq, t, clock())
		}
	}
	a.received.Add(1)
	return nil
}

func (a *amStream) drive(d time.Duration, s *sampler) (phase, error) {
	if a.w.size == 0 {
		a.w.size = a.winLen
		a.args = [][]byte{a.buf}
		origin := clock()
		a.oneWay.origin, a.deliver.origin, a.call.origin = origin, origin, origin
	}
	src := a.rt.Locality(0)
	tr := activeTracer.Load()
	start := clock()
	deadline := start + int64(d)
	r0 := a.received.Load()
	seq0 := a.w.sent
	for {
		n, err := a.w.room(a.received.Load())
		if err != nil {
			return phase{}, err
		}
		if n == 0 {
			t := clock()
			if t >= deadline {
				break
			}
			s.tick(t)
			runtime.Gosched()
			continue
		}
		n = min(n, 64)
		for i := uint64(0); i < n; i++ {
			seq := a.w.sent
			a.chk.retire(seq)
			a.chk.payload(a.buf, seq)
			if seq%amSampleEvery != 0 {
				if err := src.ApplyID(1, a.sinkID, a.args); err != nil {
					return phase{}, err
				}
			} else {
				sl := &a.slots[seq/amSampleEvery%amSlots]
				a.harvest(sl)
				t0 := clock()
				sl.call.Store(t0)
				sl.seq.Store(seq + 1)
				err := src.ApplyID(1, a.sinkID, a.args)
				t1 := clock()
				if err != nil {
					return phase{}, err
				}
				sl.ret.Store(t1)
				tr.record(spApply, seq, t0, t1)
			}
			a.w.issued(1)
		}
		t := clock()
		if t >= deadline {
			break
		}
		s.tick(t)
	}
	end := clock()
	r1 := a.received.Load()
	ph := phase{
		start: start, end: end,
		ops:       float64(r1 - r0),
		attempted: a.w.sent - seq0,
	}
	ph.payloadBytes = ph.ops * recordBytes
	return ph, nil
}

// harvest moves a slot's timed message into the latency series and frees
// the slot (driver goroutine only).
func (a *amStream) harvest(sl *amSlot) {
	if sl.seq.Load() == 0 {
		return
	}
	c, r, k := sl.call.Load(), sl.ret.Load(), sl.sink.Load()
	sl.seq.Store(0)
	sl.sink.Store(0)
	if k == 0 {
		a.untimed++
		return
	}
	a.oneWay.record(c, k-c)
	a.deliver.record(c, k-r)
	a.call.record(c, r-c)
}

func (a *amStream) progress() point {
	n := a.received.Load()
	return point{ops: n, bytes: n * recordBytes, latOps: n}
}

// drain waits until every issued message has arrived (or timeout) and
// checks exactly-once delivery.
func (a *amStream) drain(timeout time.Duration) (uint64, string) {
	deadline := time.Now().Add(timeout)
	for a.received.Load() < a.w.sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := range a.slots {
		a.harvest(&a.slots[i])
	}
	return a.chk.violations(a.w.sent)
}

// summarize fills the phase's latency figures once the stream drained:
// one-way latency from the ApplyID call to the sink's start.
func (a *amStream) summarize(ph *phase, limitUs float64) {
	rate, bytes, _ := windowRates(ph.series, ph.start, ph.end)
	ph.rate = rate
	ph.payloadGbps = bytes * 8 / 1e9
	ph.setLatency(a.oneWay.stats(ph.start, ph.end, 1e3, limitUs), ph.rate)
	ph.detail("core.apply_ns", "ns", a.call.stats(ph.start, ph.end, 1, 0).dist)
	ph.detail("core.deliver_us", "us", a.deliver.stats(ph.start, ph.end, 1e3, 0).dist)
	ph.named = append(ph.named, namedMetric{"am_rate", ph.rate, "msgs/s", int(ph.ops)})
	ph.notes = append(ph.notes, fmt.Sprintf("window %d: max %d in flight, sender found it full %d times (whole run); %d timed messages not arrived when their slot was reused",
		a.w.size, a.w.maxInflight, a.w.stalls, a.untimed))
}
