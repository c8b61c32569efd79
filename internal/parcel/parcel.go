// Package parcel implements the HPX "upper layer" data structures that sit
// between action invocation and the parcelport: the per-destination parcel
// queues and the connection cache (§3.2.2, "Send Immediate Optimization").
//
// In the default configuration a parcel is first enqueued on its
// destination's parcel queue; the sender then acquires a connection from the
// connection cache and drains the whole queue into one serialized HPX
// message — which is where aggregation happens when several threads enqueue
// concurrently or the cache runs out of connections. Both structures are
// lock-protected, so they also add contention and software overhead; the
// send-immediate configuration bypasses them entirely, serializing each
// parcel straight into its own message.
package parcel

import (
	"sync"
	"sync/atomic"

	"hpxgo/internal/parcelport"
	"hpxgo/internal/serialization"
)

// Config tunes the parcel layer.
type Config struct {
	// ZeroCopyThreshold is the zero-copy serialization threshold (bytes).
	// Zero selects serialization.DefaultZeroCopyThreshold.
	ZeroCopyThreshold int
	// MaxConnections caps connections per destination (HPX default 8192).
	MaxConnections int
	// Immediate enables the send-immediate optimization: bypass the parcel
	// queue and connection cache.
	Immediate bool
	// MaxMessageBytes bounds the payload of one aggregated HPX message
	// (HPX's max_outbound_message_size). A drain stops accumulating parcels
	// once the estimated message size would exceed it; oversized single
	// parcels still go out alone. Zero means unlimited.
	MaxMessageBytes int
}

func (c *Config) fillDefaults() {
	if c.ZeroCopyThreshold <= 0 {
		c.ZeroCopyThreshold = serialization.DefaultZeroCopyThreshold
	}
	if c.MaxConnections <= 0 {
		c.MaxConnections = parcelport.MaxPendingConnections
	}
}

// Stats are cumulative parcel-layer counters.
type Stats struct {
	ParcelsSent      uint64
	MessagesSent     uint64
	AggregatedSends  uint64 // messages that carried more than one parcel
	CacheExhausted   uint64 // times the connection cache hit its cap
	DiscardedParcels uint64 // parcels dropped for unreachable destinations
}

// Layer is the per-locality parcel sending layer.
type Layer struct {
	cfg        Config
	sendf      func(dst int, m *serialization.Message)
	sendParcel func(dst int, p serialization.Parcel) bool
	dests      []*destState

	parcelsSent      atomic.Uint64
	messagesSent     atomic.Uint64
	aggregatedSends  atomic.Uint64
	cacheExhausted   atomic.Uint64
	discardedParcels atomic.Uint64
}

// destState holds the two lock-protected structures of one destination.
type destState struct {
	queueMu sync.Mutex // the HPX spinlock protecting the parcel queue
	queue   []*serialization.Parcel

	cacheMu   sync.Mutex // the HPX spinlock protecting the connection cache
	freeConns int        // connections sitting in the cache
	liveConns int        // connections created so far
}

// NewLayer creates a parcel layer for a locality that can reach numDest
// localities. send is the parcelport send hook.
func NewLayer(numDest int, cfg Config, send func(dst int, m *serialization.Message)) *Layer {
	cfg.fillDefaults()
	l := &Layer{cfg: cfg, sendf: send}
	l.dests = make([]*destState, numDest)
	for i := range l.dests {
		l.dests[i] = &destState{}
	}
	return l
}

// ZeroCopyThreshold returns the configured threshold.
func (l *Layer) ZeroCopyThreshold() int { return l.cfg.ZeroCopyThreshold }

// SetParcelSender installs a direct parcel-send hook consulted by the
// send-immediate path before serializing. When the hook accepts the parcel
// (returns true) the layer skips the per-message encode entirely — the
// aggregation layer encodes it straight into its bundle buffer. Install
// before traffic flows; the hook never sees parcels whose arguments reach
// the zero-copy threshold.
func (l *Layer) SetParcelSender(fn func(dst int, p serialization.Parcel) bool) {
	l.sendParcel = fn
}

// Stats returns a snapshot of the layer counters.
func (l *Layer) Stats() Stats {
	return Stats{
		ParcelsSent:      l.parcelsSent.Load(),
		MessagesSent:     l.messagesSent.Load(),
		AggregatedSends:  l.aggregatedSends.Load(),
		CacheExhausted:   l.cacheExhausted.Load(),
		DiscardedParcels: l.discardedParcels.Load(),
	}
}

// DiscardDest drops every parcel queued for dst and reports how many were
// discarded. The runtime calls this when the fabric declares the peer down:
// the queued parcels could otherwise pin a dead destination's connection
// forever, and their continuations have already been failed by the reaper.
func (l *Layer) DiscardDest(dst int) int {
	if dst < 0 || dst >= len(l.dests) {
		return 0
	}
	d := l.dests[dst]
	d.queueMu.Lock()
	n := len(d.queue)
	d.queue = nil
	d.queueMu.Unlock()
	if n > 0 {
		l.discardedParcels.Add(uint64(n))
	}
	return n
}

// Put hands one parcel to the sending machinery.
func (l *Layer) Put(p *serialization.Parcel) {
	l.parcelsSent.Add(1)
	if l.cfg.Immediate {
		l.putImmediate(p)
		return
	}
	d := l.dests[p.Dest]
	d.queueMu.Lock()
	d.queue = append(d.queue, p)
	d.queueMu.Unlock()
	l.drain(p.Dest)
}

// PutOne hands a single parcel to the sending machinery by value. On the
// send-immediate path the encode reads the parcel and never retains it, so
// the copy stays on the caller's stack instead of costing a heap allocation
// per message.
func (l *Layer) PutOne(p serialization.Parcel) {
	if l.cfg.Immediate {
		l.parcelsSent.Add(1)
		if sp := l.sendParcel; sp != nil && l.allArgsInline(&p) && sp(p.Dest, p) {
			l.messagesSent.Add(1)
			return
		}
		l.putImmediate(&p)
		return
	}
	q := p
	l.Put(&q)
}

// allArgsInline reports whether p's encoding carries no zero-copy chunks,
// i.e. every argument stays below the zero-copy threshold.
func (l *Layer) allArgsInline(p *serialization.Parcel) bool {
	th := l.cfg.ZeroCopyThreshold
	for _, a := range p.Args {
		if len(a) >= th {
			return false
		}
	}
	return true
}

// putImmediate serializes p directly, bypassing the parcel queue and the
// connection cache. The layer owns the encode scratch, so it has the
// parcelport return it to the pool once the transfer locally completes.
func (l *Layer) putImmediate(p *serialization.Parcel) {
	m := serialization.EncodeOne(p, l.cfg.ZeroCopyThreshold)
	m.RecycleOnSent = true
	l.messagesSent.Add(1)
	l.sendf(p.Dest, m)
}

// drain moves queued parcels for dst into one message, if a connection is
// available.
func (l *Layer) drain(dst int) {
	d := l.dests[dst]
	if !l.acquireConn(d) {
		// Cache exhausted: the parcels stay queued; the thread that returns
		// a connection drains them (aggregating in the meantime).
		return
	}
	d.queueMu.Lock()
	var batch []*serialization.Parcel
	if l.cfg.MaxMessageBytes <= 0 {
		batch = d.queue
		d.queue = nil
	} else {
		// Take parcels up to the outbound size cap; at least one always
		// goes (an oversized parcel cannot be split).
		size := 0
		n := 0
		for n < len(d.queue) {
			size += parcelBytes(d.queue[n])
			if n > 0 && size > l.cfg.MaxMessageBytes {
				break
			}
			n++
		}
		batch = d.queue[:n:n]
		rest := d.queue[n:]
		d.queue = nil
		if len(rest) > 0 {
			d.queue = append(d.queue, rest...)
		}
	}
	d.queueMu.Unlock()
	if len(batch) == 0 {
		l.releaseConn(d)
		return
	}
	m := serialization.Encode(batch, l.cfg.ZeroCopyThreshold)
	if len(batch) > 1 {
		l.aggregatedSends.Add(1)
	}
	m.OnSent = func() {
		m.Recycle()
		l.releaseConn(d)
		// Parcels may have queued while the connection was busy.
		d.queueMu.Lock()
		pending := len(d.queue) > 0
		d.queueMu.Unlock()
		if pending {
			l.drain(dst)
		}
	}
	l.messagesSent.Add(1)
	l.sendf(dst, m)
}

// parcelBytes estimates a parcel's serialized footprint.
func parcelBytes(p *serialization.Parcel) int {
	n := 32 // metadata
	for _, a := range p.Args {
		n += 8 + len(a)
	}
	return n
}

// acquireConn takes a connection from the cache or creates one under the cap.
func (l *Layer) acquireConn(d *destState) bool {
	d.cacheMu.Lock()
	defer d.cacheMu.Unlock()
	if d.freeConns > 0 {
		d.freeConns--
		return true
	}
	if d.liveConns < l.cfg.MaxConnections {
		d.liveConns++
		return true
	}
	l.cacheExhausted.Add(1)
	return false
}

// releaseConn returns a connection to the cache.
func (l *Layer) releaseConn(d *destState) {
	d.cacheMu.Lock()
	d.freeConns++
	d.cacheMu.Unlock()
}

// QueuedParcels reports parcels waiting in the dst queue (tests/metrics).
func (l *Layer) QueuedParcels(dst int) int {
	d := l.dests[dst]
	d.queueMu.Lock()
	defer d.queueMu.Unlock()
	return len(d.queue)
}
