package lci

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"

	"hpxgo/internal/fabric"
)

// DefaultProgressBatch is the Config.ProgressBatch seed: how many packets
// one Progress call drains before yielding, so a progress caller cannot
// monopolize the engine indefinitely.
const DefaultProgressBatch = 64

// chunkWave bounds how many chunks streamChunks hands to one InjectBatch
// call: enough to amortize the producer lock across a rail's worth of
// chunks, small enough for the scratch array to recycle cheaply.
const chunkWave = 16

// deferred holds fabric injections that hit backpressure inside the progress
// engine (e.g. rendezvous payloads triggered by a CTS) and must be retried.
type deferred struct {
	mu     sync.Mutex
	pkts   []deferredSend
	replay []*fabric.Packet // arrived packets to re-dispatch (resource pressure)
}

// deferKind says what a deferred entry represents and what completes when
// its injection finally succeeds.
type deferKind uint8

const (
	// deferLong: a monolithic opLongData payload; completes the long send.
	deferLong deferKind = iota
	// deferPut: a one-sided long put payload; completes the put.
	deferPut
	// deferControl: a control packet (CTS) that must not be lost — the
	// rendezvous deadlocks without it. Nothing completes on injection.
	deferControl
	// deferChunks: a chunked rendezvous stream paused mid-payload. The
	// entry carries only the send handle; the retry resumes streamChunks
	// from the handle's cursor rather than re-injecting pkt.
	deferChunks
)

type deferredSend struct {
	pkt     fabric.Packet
	sendIdx uint32 // send handle to complete+free once injected
	kind    deferKind
}

// Progress advances the communication engine: it drains arrived packets from
// the fabric, performs tag matching, runs the rendezvous protocol and signals
// completion objects. It returns true if any work was done.
//
// Progress is safe to call from many goroutines concurrently ("mt" mode) —
// it is built from sharded locks, try-locks and atomics rather than one
// blocking lock, which is the design difference the paper measures against
// MPI. A single dedicated caller ("pin" mode) avoids even that contention.
func (d *Device) Progress() bool {
	d.stats.progressCalls.Add(1)
	did := d.retryDeferred()
	if d.replayDeferred() {
		did = true
	}
	for i := 0; i < d.cfg.ProgressBatch; i++ {
		pkt := d.fdev.Poll()
		if pkt == nil {
			break
		}
		did = true
		d.dispatch(pkt)
	}
	return did
}

// deferPacket re-queues an arrived packet whose handling hit a transient
// resource limit; the next Progress pass re-dispatches it.
func (d *Device) deferPacket(pkt *fabric.Packet) {
	d.def.mu.Lock()
	d.def.replay = append(d.def.replay, pkt)
	d.def.mu.Unlock()
}

// replayDeferred re-dispatches packets parked by deferPacket.
func (d *Device) replayDeferred() bool {
	d.def.mu.Lock()
	if len(d.def.replay) == 0 {
		d.def.mu.Unlock()
		return false
	}
	pkts := d.def.replay
	d.def.replay = nil
	d.def.mu.Unlock()
	for _, pkt := range pkts {
		d.dispatch(pkt)
	}
	return true
}

// handlePutCTS sends a one-sided long put's payload in response to the
// target's clear-to-send and signals local completion.
func (d *Device) handlePutCTS(cts *fabric.Packet) {
	sendIdx := uint32(cts.T0)
	recvIdx := uint32(cts.T1)
	h := d.sendHandles.get(sendIdx)
	out := fabric.Packet{Dst: h.dst, Op: opPutData, T0: uint64(recvIdx), Data: h.data}
	if err := d.fdev.Inject(out); err != nil {
		if errors.Is(err, fabric.ErrBackpressure) {
			d.deferPutSend(out, sendIdx)
			return
		}
	}
	d.completePutSend(sendIdx)
}

// completePutSend signals the put's local completion and frees the handle.
func (d *Device) completePutSend(sendIdx uint32) {
	h := d.sendHandles.get(sendIdx)
	if h.comp != nil {
		h.comp.signal(Request{Type: CompSend, Rank: h.dst, Tag: h.tag, Ctx: h.ctx})
	}
	d.sendHandles.release(sendIdx)
	d.stats.putsSent.Add(1)
}

// deferPutSend queues a backpressured put payload for retry.
func (d *Device) deferPutSend(pkt fabric.Packet, sendIdx uint32) {
	d.def.mu.Lock()
	d.def.pkts = append(d.def.pkts, deferredSend{pkt: pkt, sendIdx: sendIdx, kind: deferPut})
	d.def.mu.Unlock()
}

// deferControl queues a backpressured control packet (CTS) for retry. Unlike
// payload entries nothing completes when it lands — it just must not be
// dropped.
func (d *Device) deferControl(pkt fabric.Packet) {
	d.def.mu.Lock()
	d.def.pkts = append(d.def.pkts, deferredSend{pkt: pkt, kind: deferControl})
	d.def.mu.Unlock()
}

// deferChunks parks a paused chunk stream; the next Progress pass resumes
// it from the send handle's cursor.
func (d *Device) deferChunks(sendIdx uint32) {
	d.def.mu.Lock()
	d.def.pkts = append(d.def.pkts, deferredSend{sendIdx: sendIdx, kind: deferChunks})
	d.def.mu.Unlock()
}

// dispatch handles one arrived packet.
func (d *Device) dispatch(pkt *fabric.Packet) {
	switch pkt.Op {
	case opMedium:
		tag := uint32(pkt.T0)
		if pr := d.match.arrive(kindMedium, pkt, tag); pr != nil {
			d.deliverMedium(pkt, pr)
		} else {
			d.stats.unexpected.Add(1)
		}
	case opShort:
		// Unpack the immediate payload into the packet's own data slot so the
		// ordinary medium delivery path applies. Pooled packets arrive with
		// payload capacity to spare, so this is allocation-free.
		n := int(pkt.T2)
		b := pkt.Data
		if cap(b) < ShortSize {
			b = make([]byte, ShortSize)
		}
		b = b[:ShortSize]
		binary.LittleEndian.PutUint64(b, pkt.T1)
		pkt.Data = b[:n]
		tag := uint32(pkt.T0)
		if pr := d.match.arrive(kindMedium, pkt, tag); pr != nil {
			d.deliverMedium(pkt, pr)
		} else {
			d.stats.unexpected.Add(1)
		}
	case opPut:
		// Dynamic put: the "LCI runtime" allocates the target buffer. The
		// fabric already handed us a private copy, so pass it through — zero
		// additional copies, as in the real implementation. The packet rides
		// the completion record so the consumer can recycle it (Release)
		// when it is done with Data; until then Data stays valid because the
		// pool never reuses a packet with live references.
		d.stats.putsRecvd.Add(1)
		d.putCQ.Push(Request{Type: CompPut, Rank: pkt.Src, Tag: uint32(pkt.T0), Data: pkt.Data, Pkt: pkt})
	case opRTS:
		tag := uint32(pkt.T0)
		if pr := d.match.arrive(kindLong, pkt, tag); pr != nil {
			// Matched a posted long receive: reply clear-to-send. acceptRTS
			// re-queues both sides on handle exhaustion.
			_ = d.acceptRTS(pkt, pr)
		} else {
			d.stats.unexpected.Add(1)
		}
	case opCTS:
		d.handleCTS(pkt)
		pkt.Release()
	case opLongFin:
		// Remote completion of a chunked (zero-copy) long send: the
		// receiver has copied every borrowed chunk out of our buffer.
		d.completeLongSend(uint32(pkt.T0))
		pkt.Release()
	case opPutRTS:
		// One-sided long put: allocate the target buffer now, accept.
		size := int(uint32(pkt.T1))
		h, idx, ok := d.recvHandles.alloc()
		if !ok {
			// Requeue for the next progress pass rather than dropping.
			d.deferPacket(pkt)
			d.stats.retries.Add(1)
			return
		}
		h.buf = make([]byte, size)
		h.src = pkt.Src
		h.tag = uint32(pkt.T0) // the put's meta word
		h.put = true
		sendIdx := uint32(pkt.T1 >> 32)
		if err := d.fdev.Inject(fabric.Packet{Dst: pkt.Src, Op: opPutCTS, T0: uint64(sendIdx), T1: uint64(idx)}); err != nil {
			d.recvHandles.release(idx)
			d.deferPacket(pkt) // keeps ownership; released when it finally lands
			return
		}
		pkt.Release()
	case opPutCTS:
		d.handlePutCTS(pkt)
		pkt.Release()
	case opPutData:
		idx := uint32(pkt.T0)
		h := d.recvHandles.get(idx)
		copy(h.buf, pkt.Data)
		// The "LCI runtime allocated" buffer surfaces through the
		// pre-configured put CQ, like a dynamic put.
		d.putCQ.Push(Request{Type: CompPut, Rank: h.src, Tag: h.tag, Data: h.buf})
		d.recvHandles.release(idx)
		d.stats.putsRecvd.Add(1)
		pkt.Release()
	case opLongData:
		idx := uint32(pkt.T0)
		h := d.recvHandles.get(idx)
		n := copy(h.buf, pkt.Data)
		if h.comp != nil {
			h.comp.signal(Request{Type: CompRecv, Rank: h.src, Tag: h.tag, Data: h.buf[:n], Ctx: h.ctx})
		}
		d.recvHandles.release(idx)
		d.stats.longRecvd.Add(1)
		pkt.Release()
	case opLongChunk:
		// One striped rendezvous chunk: T1 is its byte offset in the posted
		// buffer, so the placement copy needs no ordering — chunks of one
		// transfer land concurrently from different rails and different
		// Progress callers. The atomic byte countdown (armed from the RTS
		// size in acceptRTS) elects exactly one completer; every chunk's
		// copy happens-before the final decrement observes zero.
		idx := uint32(pkt.T0)
		h := d.recvHandles.get(idx)
		off := int(pkt.T1)
		if off < len(h.buf) {
			copy(h.buf[off:], pkt.Data)
		}
		if atomic.AddInt64(&h.remaining, -int64(len(pkt.Data))) == 0 {
			n := h.expect
			if n > len(h.buf) {
				n = len(h.buf)
			}
			// Chunks travelled zero-copy out of the sender's buffer, so the
			// sender completes only on this remote-completion notification —
			// every chunk is copied out before the FIN is built.
			fin := fabric.Packet{Dst: h.src, Op: opLongFin, T0: uint64(h.sendIdx)}
			if h.comp != nil {
				h.comp.signal(Request{Type: CompRecv, Rank: h.src, Tag: h.tag, Data: h.buf[:n], Ctx: h.ctx})
			}
			d.recvHandles.release(idx)
			d.stats.longRecvd.Add(1)
			if err := d.fdev.Inject(fin); errors.Is(err, fabric.ErrBackpressure) {
				// Losing the FIN would leak the sender's handle and strand
				// its completion; park it like a backpressured CTS.
				d.stats.retries.Add(1)
				d.deferControl(fin)
			}
		}
		pkt.Release()
	}
}

// handleCTS sends the rendezvous payload in response to a clear-to-send:
// either as the monolithic opLongData blob (chunking disabled, or the
// payload fits one chunk) or as a chunk stream striped across rails.
func (d *Device) handleCTS(cts *fabric.Packet) {
	sendIdx := uint32(cts.T0)
	recvIdx := uint32(cts.T1)
	h := d.sendHandles.get(sendIdx)
	cs, sw := d.chunkPlan(len(h.data))
	if cs == 0 {
		out := fabric.Packet{Dst: h.dst, Op: opLongData, T0: uint64(recvIdx), Data: h.data}
		if err := d.fdev.Inject(out); err != nil {
			if errors.Is(err, fabric.ErrBackpressure) {
				d.deferSend(out, sendIdx)
				return
			}
			// Unreachable with a validated destination; drop the handle to
			// avoid leaking it.
		}
		d.completeLongSend(sendIdx)
		return
	}
	h.recvIdx = recvIdx
	h.chunkSize = cs
	h.stripe = sw
	h.rails = d.fdev.Rails()
	// Rotate each transfer's first rail so concurrent narrow stripes from
	// one sender spread over the rail set instead of piling onto rail 0.
	h.railBase = int(sendIdx) % h.rails
	h.chunks = (len(h.data) + cs - 1) / cs
	h.sent = 0
	d.streamChunks(sendIdx)
}

// streamChunks advances a chunked rendezvous stream: it cuts the payload
// into chunkSize sub-slices, pins each to its stripe rail (rail-major
// order, so consecutive wave entries share a rail and InjectBatch amortizes
// the producer lock), and injects until the payload is fully on the wire or
// a rail backpressures — in which case the stream parks on the deferred
// list and resumes here, from h.sent, on a later Progress pass. The fabric
// copies each chunk on inject, so completion (buffer reusable) fires as
// soon as the last chunk is accepted.
func (d *Device) streamChunks(sendIdx uint32) bool {
	h := d.sendHandles.get(sendIdx)
	wave := d.getWave()
	progressed := false
	for h.sent < h.chunks {
		k := 0
		for k < chunkWave && h.sent+k < h.chunks {
			ci, railIdx := h.chunkAt(h.sent + k)
			off := ci * h.chunkSize
			end := off + h.chunkSize
			if end > len(h.data) {
				end = len(h.data)
			}
			wave[k] = fabric.Packet{
				Dst:    h.dst,
				Op:     opLongChunk,
				Rail:   fabric.RailPin(railIdx),
				T0:     uint64(h.recvIdx),
				T1:     uint64(off),
				T2:     uint64(len(h.data)),
				Data:   h.data[off:end],
				Borrow: true, // zero-copy: h.data stays pinned until the FIN
			}
			k++
		}
		n, err := d.fdev.InjectBatch(wave[:k])
		h.sent += n
		if n > 0 {
			progressed = true
		}
		if err != nil {
			if errors.Is(err, fabric.ErrBackpressure) {
				d.stats.retries.Add(1)
				d.putWave(wave)
				d.deferChunks(sendIdx)
				return progressed
			}
			// Unreachable with a validated destination; abandon the stream
			// and complete locally so the handle is not leaked (no chunks
			// means no FIN will ever arrive).
			d.putWave(wave)
			d.completeLongSend(sendIdx)
			return true
		}
	}
	// Every chunk is accepted, but the payload is only borrowed by the
	// fabric: local completion (and the handle release that lets the caller
	// reuse the buffer) waits for the receiver's opLongFin.
	d.putWave(wave)
	return true
}

// completeLongSend signals the sender's completion object and frees the
// handle.
func (d *Device) completeLongSend(sendIdx uint32) {
	h := d.sendHandles.get(sendIdx)
	if h.comp != nil {
		h.comp.signal(Request{Type: CompSend, Rank: h.dst, Tag: h.tag, Ctx: h.ctx})
	}
	d.sendHandles.release(sendIdx)
	d.stats.longSent.Add(1)
}

// deferSend queues a backpressured injection for retry on the next Progress.
func (d *Device) deferSend(pkt fabric.Packet, sendIdx uint32) {
	d.def.mu.Lock()
	d.def.pkts = append(d.def.pkts, deferredSend{pkt: pkt, sendIdx: sendIdx})
	d.def.mu.Unlock()
}

// retryDeferred re-attempts previously backpressured injections.
func (d *Device) retryDeferred() bool {
	d.def.mu.Lock()
	if len(d.def.pkts) == 0 {
		d.def.mu.Unlock()
		return false
	}
	pending := d.def.pkts
	d.def.pkts = nil
	d.def.mu.Unlock()

	did := false
	for i, ds := range pending {
		if ds.kind == deferChunks {
			// The stream re-parks itself on backpressure, so this entry is
			// never tail-requeued below.
			if d.streamChunks(ds.sendIdx) {
				did = true
			}
			continue
		}
		if err := d.fdev.Inject(ds.pkt); err != nil {
			if errors.Is(err, fabric.ErrBackpressure) {
				d.def.mu.Lock()
				d.def.pkts = append(d.def.pkts, pending[i:]...)
				d.def.mu.Unlock()
				return did
			}
			continue
		}
		switch ds.kind {
		case deferPut:
			d.completePutSend(ds.sendIdx)
		case deferLong:
			d.completeLongSend(ds.sendIdx)
		case deferControl:
			// Control packets complete nothing; landing is enough.
		}
		did = true
	}
	return did
}
