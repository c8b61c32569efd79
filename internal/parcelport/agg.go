package parcelport

import (
	"sync"
	"sync/atomic"
	"time"

	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// Aggregation defaults. FlushBytes roughly matches one fabric packet of
// small messages; FlushDelay bounds the latency a buffered message can pay
// waiting for company; ColdIdle decides when a destination counts as cold
// (first message after an idle gap goes out immediately rather than waiting
// alone in a buffer) and, through the sparse-peer rule, when it counts as
// sparse (see aggDest).
const (
	DefaultAggFlushBytes = 4096
	DefaultAggFlushDelay = 50 * time.Microsecond
	DefaultAggColdIdle   = 200 * time.Microsecond
)

// AggConfig tunes the sender-side aggregation layer.
type AggConfig struct {
	// FlushBytes flushes a destination buffer once it reaches this size.
	// Default 4096.
	FlushBytes int
	// FlushDelay bounds how long a buffered message may age before the
	// buffer is flushed by background work or the progress thread.
	// Default 50µs.
	FlushDelay time.Duration
	// ColdIdle is the idle gap after which a destination counts as cold:
	// the next message bypasses the buffer (no batching partner is in
	// sight, so buffering would only add latency). It also scales the
	// sparse-peer rule. Default 4× FlushDelay.
	ColdIdle time.Duration
	// MaxSub caps the size of a sub-message eligible for bundling; larger
	// messages (and any message with zero-copy chunks) pass through.
	// Default FlushBytes/2.
	MaxSub int
	// MaxQueued enforces the per-destination pending cap on buffered
	// sub-messages: reaching it forces a flush (backpressure) and bumps
	// the CapFlushes counter. Default MaxPendingConnections.
	MaxQueued int
}

func (c *AggConfig) fillDefaults() {
	if c.FlushBytes <= 0 {
		c.FlushBytes = DefaultAggFlushBytes
	}
	if c.FlushDelay <= 0 {
		c.FlushDelay = DefaultAggFlushDelay
	}
	if c.ColdIdle <= 0 {
		c.ColdIdle = 4 * c.FlushDelay
	}
	if c.MaxSub <= 0 {
		c.MaxSub = c.FlushBytes / 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = MaxPendingConnections
	}
}

// AggStats are cumulative aggregation-layer counters.
type AggStats struct {
	BundledMessages uint64 // sub-messages packed into bundles
	Bundles         uint64 // bundle transfers handed to the inner parcelport
	DirectSends     uint64 // messages passed through unbundled
	ColdSends       uint64 // direct sends taken because the destination was cold or sparse
	SizeFlushes     uint64 // buffers flushed by FlushBytes
	AgeFlushes      uint64 // buffers flushed by FlushDelay (background/progress)
	CapFlushes      uint64 // buffers flushed by the MaxQueued backpressure cap
	OrderFlushes    uint64 // buffers flushed ahead of a passthrough message
	StopFlushes     uint64 // buffers drained by Stop at shutdown
	Unbundled       uint64 // sub-messages unpacked from received bundles
}

// aggDest is the per-destination coalescing buffer.
//
// It also carries the sparse-peer rule. The cold check alone looks at one
// gap: a message that follows its predecessor within ColdIdle is buffered
// and waits up to FlushDelay for company, even on a peer whose traffic is
// so thin that company almost never comes. So each destination keeps an
// EWMA (α = 1/4) of the gaps between its bundleable sends. Once the EWMA
// exceeds 2×ColdIdle the destination is sparse and every send to it goes
// direct; it bundles again once the EWMA falls below ColdIdle/2. The 4×
// band between the two keeps a peer near the boundary from flapping.
type aggDest struct {
	mu      sync.Mutex
	buf     []byte // nil when empty; otherwise a growing wire bundle
	count   int    // frames in buf
	firstNs int64  // when the oldest buffered frame arrived
	lastNs  int64  // when this destination last saw traffic
	gapNs   int64  // EWMA of the gaps between sends (0 = no gap yet)
	sparse  bool   // the sparse-peer rule's state
	// pending mirrors count != 0 so FlushStale can skip idle destinations
	// without taking their locks.
	pending atomic.Bool
}

// nextGapLocked folds the gap from d.lastNs to now into d's interarrival
// EWMA and applies the sparse-peer hysteresis, returning the results for
// the caller to store once it commits to the send. Gaps are capped at
// 4×ColdIdle, so one long idle spell cannot keep a peer that turns hot
// sending direct for long. Caller holds d.mu.
func (a *Aggregator) nextGapLocked(d *aggDest, now int64) (gapNs int64, sparse bool) {
	gapNs, sparse = d.gapNs, d.sparse
	if d.lastNs == 0 {
		return gapNs, sparse // first traffic: no gap yet
	}
	cold := int64(a.cfg.ColdIdle)
	gap := min(now-d.lastNs, 4*cold)
	if gapNs == 0 {
		gapNs = gap
	} else {
		gapNs += (gap - gapNs) / 4
	}
	switch {
	case gapNs > 2*cold:
		sparse = true
	case gapNs < cold/2:
		sparse = false
	}
	return gapNs, sparse
}

// Aggregator is the sender-side parcel aggregation layer: a Parcelport
// decorator that packs small same-destination messages into one wire
// bundle per fabric transfer and unbundles on the receive side before
// delivery. Large messages, and anything carrying zero-copy chunks, pass
// through untouched (after flushing the destination buffer, preserving
// rough per-destination FIFO order).
//
// Bundles are ordinary messages to the layers below, so they ride the
// fabric's reliability layer like any other transfer: one ack, one
// retransmission unit, exactly-once delivery per bundle and therefore per
// sub-message.
type Aggregator struct {
	inner   Parcelport
	cfg     AggConfig
	start   time.Time
	deliver DeliverFunc
	dests   []*aggDest

	stats struct {
		bundled, bundles, direct, cold                  atomic.Uint64
		sizeFl, ageFl, capFl, orderFl, stopFl, unbundle atomic.Uint64
	}
}

// NewAggregator wraps inner with a coalescing layer for numDest
// destinations.
func NewAggregator(inner Parcelport, numDest int, cfg AggConfig) *Aggregator {
	cfg.fillDefaults()
	a := &Aggregator{inner: inner, cfg: cfg, start: time.Now()}
	a.dests = make([]*aggDest, numDest)
	for i := range a.dests {
		a.dests[i] = &aggDest{}
	}
	return a
}

// Inner exposes the wrapped parcelport (stats reporting).
func (a *Aggregator) Inner() Parcelport { return a.inner }

// Name renders the inner parcelport's name with the aggregation suffix.
func (a *Aggregator) Name() string { return a.inner.Name() + "_agg" }

// Stats returns a snapshot of the aggregation counters.
func (a *Aggregator) Stats() AggStats {
	return AggStats{
		BundledMessages: a.stats.bundled.Load(),
		Bundles:         a.stats.bundles.Load(),
		DirectSends:     a.stats.direct.Load(),
		ColdSends:       a.stats.cold.Load(),
		SizeFlushes:     a.stats.sizeFl.Load(),
		AgeFlushes:      a.stats.ageFl.Load(),
		CapFlushes:      a.stats.capFl.Load(),
		OrderFlushes:    a.stats.orderFl.Load(),
		StopFlushes:     a.stats.stopFl.Load(),
		Unbundled:       a.stats.unbundle.Load(),
	}
}

// QueuedSubMessages reports buffered frames for dst (tests/metrics).
func (a *Aggregator) QueuedSubMessages(dst int) int {
	if dst < 0 || dst >= len(a.dests) {
		return 0
	}
	d := a.dests[dst]
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

func (a *Aggregator) nowNs() int64 { return int64(time.Since(a.start)) }

// Start installs the unbundling delivery wrapper and starts the inner
// parcelport.
func (a *Aggregator) Start(deliver DeliverFunc) error {
	a.deliver = deliver
	return a.inner.Start(a.onDeliver)
}

// Stop flushes every destination buffer and stops the inner parcelport.
// Shutdown drains credit StopFlushes, not AgeFlushes: the buffers never
// reached FlushDelay, and folding them into the age counter would pollute
// the expiry statistics.
func (a *Aggregator) Stop() {
	for dst := range a.dests {
		a.flushDest(dst, &a.stats.stopFl)
	}
	a.inner.Stop()
}

// bundleable reports whether m may ride a bundle: non-zero-copy only and
// small. Zero-copy chunks alias user memory the receiver must get as
// separate transfers, and big payloads gain nothing from batching.
func (a *Aggregator) bundleable(m *serialization.Message) bool {
	return len(m.ZeroCopy) == 0 && len(m.Transmission) == 0 &&
		len(m.NonZeroCopy) > 0 && len(m.NonZeroCopy) <= a.cfg.MaxSub
}

// Send coalesces m into dst's buffer or passes it through, flushing per the
// policy (size, backpressure cap, cold or sparse destination).
func (a *Aggregator) Send(dst int, m *serialization.Message) {
	if dst < 0 || dst >= len(a.dests) {
		a.inner.Send(dst, m)
		return
	}
	if !a.bundleable(m) {
		// Flush buffered predecessors first so per-destination order is
		// roughly preserved, then hand the message through untouched.
		a.flushDest(dst, &a.stats.orderFl)
		a.stats.direct.Add(1)
		a.inner.Send(dst, m)
		return
	}
	d := a.dests[dst]
	now := a.nowNs()
	d.mu.Lock()
	d.gapNs, d.sparse = a.nextGapLocked(d, now)
	if d.count == 0 && (d.sparse || now-d.lastNs > int64(a.cfg.ColdIdle)) {
		// Cold or sparse destination: nothing buffered and no batching
		// partner in sight — send immediately rather than paying the
		// flush delay for nothing.
		d.lastNs = now
		d.mu.Unlock()
		a.stats.direct.Add(1)
		a.stats.cold.Add(1)
		a.inner.Send(dst, m)
		return
	}
	a.ensureBufLocked(d)
	d.buf = wire.AppendFrame(d.buf, m.NonZeroCopy)
	out, counter := a.noteAppendLocked(d, now)
	d.mu.Unlock()
	a.stats.bundled.Add(1)
	// The payload was copied into the bundle: the sub-message is locally
	// complete. Done may re-enter Send (the parcel layer drains its queue
	// from OnSent), hence outside d.mu.
	m.Done()
	if out != nil {
		counter.Add(1)
		a.sendBundle(dst, out)
	}
}

// SendParcel encodes p straight into dst's bundle buffer, skipping the
// per-message encode scratch entirely: no scratch allocation, no copy, no
// Message wrapper — the steady-state bundled fast path. It returns false
// when the parcel must take the ordinary encode-then-Send path instead
// (out-of-range destination, too big to bundle, or a cold or sparse
// destination, where Send's direct-send policy applies). The caller
// guarantees every argument is below its zero-copy threshold.
func (a *Aggregator) SendParcel(dst int, p serialization.Parcel) bool {
	if dst < 0 || dst >= len(a.dests) {
		return false
	}
	need := serialization.EncodedSizeInline(&p)
	if need > a.cfg.MaxSub {
		return false
	}
	d := a.dests[dst]
	now := a.nowNs()
	d.mu.Lock()
	gapNs, sparse := a.nextGapLocked(d, now)
	if d.count == 0 && (sparse || now-d.lastNs > int64(a.cfg.ColdIdle)) {
		// Send takes it direct and records the gap then, so the gap
		// is folded in once.
		d.mu.Unlock()
		return false
	}
	d.gapNs, d.sparse = gapNs, sparse
	a.ensureBufLocked(d)
	d.buf = serialization.AppendEncodeInline(wire.AppendFrameHeader(d.buf, need), &p)
	out, counter := a.noteAppendLocked(d, now)
	d.mu.Unlock()
	a.stats.bundled.Add(1)
	if out != nil {
		counter.Add(1)
		a.sendBundle(dst, out)
	}
	return true
}

// ensureBufLocked lazily allocates dst's bundle buffer. Caller holds d.mu.
func (a *Aggregator) ensureBufLocked(d *aggDest) {
	if d.buf == nil {
		// Size the buffer so appends never outgrow the pooled slice: the
		// last frame lands when len < FlushBytes and adds at most MaxSub
		// payload plus its header.
		need := a.cfg.FlushBytes + a.cfg.MaxSub + wire.FrameHeaderSize + wire.BundleHeaderSize
		d.buf = wire.BeginBundle(wire.GetBuf(need)[:0])
	}
}

// noteAppendLocked records an appended frame and applies the size and
// backpressure-cap flush policy, returning the detached bundle (if any)
// with the counter to credit. Caller holds d.mu and sends the bundle after
// unlocking.
func (a *Aggregator) noteAppendLocked(d *aggDest, now int64) (*serialization.Message, *atomic.Uint64) {
	d.count++
	if d.count == 1 {
		d.firstNs = now
		d.pending.Store(true)
	}
	d.lastNs = now
	switch {
	case len(d.buf) >= a.cfg.FlushBytes:
		return d.takeLocked(), &a.stats.sizeFl
	case d.count >= a.cfg.MaxQueued:
		return d.takeLocked(), &a.stats.capFl
	}
	return nil, nil
}

// takeLocked detaches the destination's buffer as a sendable message.
// Caller holds d.mu.
func (d *aggDest) takeLocked() *serialization.Message {
	buf := d.buf
	d.buf = nil
	d.count = 0
	d.pending.Store(false)
	return &serialization.Message{
		NonZeroCopy: buf,
		OnSent:      func() { wire.PutBuf(buf) },
	}
}

// flushDest sends dst's buffered bundle, if any, crediting counter.
func (a *Aggregator) flushDest(dst int, counter *atomic.Uint64) {
	d := a.dests[dst]
	if !d.pending.Load() {
		return
	}
	d.mu.Lock()
	var out *serialization.Message
	if d.count > 0 {
		out = d.takeLocked()
		d.lastNs = a.nowNs()
	}
	d.mu.Unlock()
	if out != nil {
		counter.Add(1)
		a.sendBundle(dst, out)
	}
}

func (a *Aggregator) sendBundle(dst int, out *serialization.Message) {
	a.stats.bundles.Add(1)
	a.inner.Send(dst, out)
}

// FlushStale flushes every destination whose oldest buffered message has
// aged past FlushDelay. Driven from BackgroundWork and, in lci pin mode,
// from the dedicated progress thread. Reports whether anything flushed.
func (a *Aggregator) FlushStale() bool {
	now := a.nowNs()
	did := false
	for dst, d := range a.dests {
		if !d.pending.Load() {
			continue
		}
		d.mu.Lock()
		var out *serialization.Message
		if d.count > 0 && now-d.firstNs >= int64(a.cfg.FlushDelay) {
			out = d.takeLocked()
			d.lastNs = now
		}
		d.mu.Unlock()
		if out != nil {
			a.stats.ageFl.Add(1)
			a.sendBundle(dst, out)
			did = true
		}
	}
	return did
}

// BackgroundWork ages out stale buffers and runs the inner parcelport's
// background work.
func (a *Aggregator) BackgroundWork(workerID int) bool {
	did := a.FlushStale()
	if a.inner.BackgroundWork(workerID) {
		did = true
	}
	return did
}

// onDeliver unbundles received bundles into their sub-messages; everything
// else is delivered as-is.
func (a *Aggregator) onDeliver(m *serialization.Message) {
	if len(m.ZeroCopy) != 0 || !wire.IsBundle(m.NonZeroCopy) {
		a.deliver(m)
		return
	}
	// A malformed bundle stops at the corruption point: frames before it
	// deliver, the rest drop (same policy as a corrupted plain message).
	// One Message struct serves every frame: delivery decodes synchronously
	// and retains only the underlying bytes, never the struct. Every frame
	// aliases the bundle buffer, so each sub-message shares the bundle's
	// owner: one reference per frame, plus releasing the arrival reference
	// once all frames are handed off.
	owner := m.Owner
	var sub serialization.Message
	_ = wire.ForEachFrame(m.NonZeroCopy, func(frame []byte) error {
		a.stats.unbundle.Add(1)
		if owner != nil {
			owner.Retain()
		}
		sub = serialization.Message{NonZeroCopy: frame, Owner: owner}
		a.deliver(&sub)
		return nil
	})
	if owner != nil {
		owner.Release()
	}
}
