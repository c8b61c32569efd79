package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Payloads and values share one self-checking layout: an 8-byte word 0
// (sequence or key id), an 8-byte word 1 (writer sequence), seed-derived
// filler, and a trailing 8-byte checksum over everything before it.
const recordBytes = 64

// mix64 is the splitmix64 finalizer: the filler generator and the
// checksum's word mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// checksum hashes b word by word; len(b) must be a multiple of 8.
func checksum(b []byte, seed uint64) uint64 {
	h := seed
	for i := 0; i+8 <= len(b); i += 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(b[i:]))
	}
	return h
}

// fillRecord writes a self-checking record into b (len recordBytes).
func fillRecord(b []byte, seed, w0, w1 uint64) {
	binary.LittleEndian.PutUint64(b[0:], w0)
	binary.LittleEndian.PutUint64(b[8:], w1)
	x := mix64(seed ^ w0 ^ (w1 << 1))
	for i := 16; i < recordBytes-8; i += 8 {
		x = mix64(x)
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	binary.LittleEndian.PutUint64(b[recordBytes-8:], checksum(b[:recordBytes-8], seed))
}

// readRecord verifies b's checksum and returns its two words.
func readRecord(b []byte, seed uint64) (w0, w1 uint64, ok bool) {
	if len(b) != recordBytes || binary.LittleEndian.Uint64(b[recordBytes-8:]) != checksum(b[:recordBytes-8], seed) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:]), true
}

// streamChecker proves exactly-once, uncorrupted delivery of a one-way
// message stream in fixed memory. Each payload carries its sequence
// number; the receiver marks it in a ring of slots, slot seq mod ring
// holding seq's generation (seq / ring) plus one. Before reusing a slot
// the sender retires its previous sequence, which must have arrived by
// then: a message overtaken by ring later ones counts as lost. A mark
// found already set is a duplicate; marks still missing after the stream
// drained are losses.
type streamChecker struct {
	seed    uint64
	slots   []atomic.Uint32
	dup     atomic.Uint64
	corrupt atomic.Uint64
	lost    atomic.Uint64
}

// newStreamChecker makes a checker with a ring of ring slots (a power of
// two).
func newStreamChecker(seed uint64, ring int) *streamChecker {
	return &streamChecker{seed: seed, slots: make([]atomic.Uint32, ring)}
}

func (c *streamChecker) ring() uint64 { return uint64(len(c.slots)) }

func (c *streamChecker) mark(seq uint64) uint32 { return uint32(seq/c.ring()) + 1 }

// payload fills b with message seq.
func (c *streamChecker) payload(b []byte, seq uint64) { fillRecord(b, c.seed, seq, ^seq) }

// retire is called by the sender before it sends seq: it checks that the
// sequence that used seq's slot before (seq - ring) has arrived.
func (c *streamChecker) retire(seq uint64) {
	if seq < c.ring() {
		return
	}
	if c.slots[seq%c.ring()].Load() != c.mark(seq-c.ring()) {
		c.lost.Add(1)
	}
}

// deliver records one received payload; it returns the sequence number
// and false when the payload is corrupt or a duplicate.
func (c *streamChecker) deliver(b []byte) (uint64, bool) {
	seq, inv, ok := readRecord(b, c.seed)
	if !ok || inv != ^seq {
		c.corrupt.Add(1)
		return 0, false
	}
	slot, m := &c.slots[seq%c.ring()], c.mark(seq)
	for {
		old := slot.Load()
		if old >= m {
			// Already marked, or its slot has moved on to a later
			// generation: a duplicate, or an arrival after retirement
			// that retire already counted as lost.
			c.dup.Add(1)
			return seq, false
		}
		if slot.CompareAndSwap(old, m) {
			return seq, true
		}
	}
}

// violations summarizes the stream's correctness state once sent
// messages have been issued and the stream has drained.
func (c *streamChecker) violations(sent uint64) (n uint64, desc string) {
	lost := c.lost.Load()
	from := uint64(0)
	if sent > c.ring() {
		from = sent - c.ring()
	}
	for s := from; s < sent; s++ {
		if c.slots[s%c.ring()].Load() != c.mark(s) {
			lost++
		}
	}
	dup, bad := c.dup.Load(), c.corrupt.Load()
	return lost + dup + bad, fmt.Sprintf("%d lost, %d duplicated, %d corrupt of %d sent", lost, dup, bad, sent)
}

// checkEcho verifies one echo reply against the request it answers: one
// blob, byte-identical, and not aliasing the request's memory (an alias
// would make the comparison vacuous).
func checkEcho(req []byte, rets [][]byte) error {
	if len(rets) != 1 {
		return fmt.Errorf("echo: %d reply blobs, want 1", len(rets))
	}
	got := rets[0]
	if len(got) != len(req) {
		return fmt.Errorf("echo: reply %d bytes, want %d", len(got), len(req))
	}
	if len(got) > 0 && unsafe.SliceData(got) == unsafe.SliceData(req) {
		return fmt.Errorf("echo: reply aliases the request buffer")
	}
	for i := range got {
		if got[i] != req[i] {
			return fmt.Errorf("echo: %d-byte reply differs at byte %d", len(req), i)
		}
	}
	return nil
}

// kvChecker checks the serving tier's read guarantee from the client's
// side. Every value encodes (key, writer sequence), the sequence counting
// the PUTs issued to that key; sequence 0 is the preloaded value. The
// checker's memory is fixed by the keyspace. A GET must return a value that was written to that key
// and is no older than the newest of the client's completed PUTs that a
// later GET must observe.
//
// Concurrent PUTs to one key may apply in either order, so only an
// isolated PUT — one that no other PUT to the key overlapped — raises the
// key's floor: after it completes, the store holds its value or a later
// one, and every later PUT carries a higher sequence.
type kvChecker struct {
	seed uint64

	mu   sync.Mutex
	keys []kvKey

	stale, foreign, corrupt, missing atomic.Uint64
}

type kvKey struct {
	floor    atomic.Uint64
	inflight int
	issued   uint64 // PUTs issued to the key so far: the last sequence
}

// kvPut is an issued, not yet completed PUT.
type kvPut struct {
	key   int
	seq   uint64 // the key's issued count including this PUT
	alone bool   // no other PUT to the key was in flight at issue
}

func newKVChecker(seed uint64, keys int) *kvChecker {
	return &kvChecker{seed: seed, keys: make([]kvKey, keys)}
}

// value encodes the record for (key, seq) into b.
func (c *kvChecker) value(b []byte, key int, seq uint64) { fillRecord(b, c.seed, uint64(key), seq) }

// beginPut allocates the next writer sequence for key and returns the
// PUT to pass to endPut.
func (c *kvChecker) beginPut(key int) kvPut {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := &c.keys[key]
	k.inflight++
	k.issued++
	return kvPut{key: key, seq: k.issued, alone: k.inflight == 1}
}

// endPut retires p; ok reports whether the PUT completed successfully.
func (c *kvChecker) endPut(p kvPut, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := &c.keys[p.key]
	k.inflight--
	if ok && p.alone && k.issued == p.seq && p.seq > k.floor.Load() {
		k.floor.Store(p.seq)
	}
}

// beginGet returns the floor a GET of key issued now must respect.
func (c *kvChecker) beginGet(key int) uint64 { return c.keys[key].floor.Load() }

// checkGet verifies a completed GET of key issued with floor.
func (c *kvChecker) checkGet(key int, floor uint64, val []byte, found bool) error {
	if !found {
		c.missing.Add(1)
		return fmt.Errorf("kv: key %d not found", key)
	}
	k, seq, ok := readRecord(val, c.seed)
	if !ok {
		c.corrupt.Add(1)
		return fmt.Errorf("kv: key %d: corrupt value", key)
	}
	written := false
	if k == uint64(key) {
		c.mu.Lock()
		written = seq <= c.keys[key].issued
		c.mu.Unlock()
	}
	if !written {
		c.foreign.Add(1)
		return fmt.Errorf("kv: key %d returned (key %d, seq %d), never written to it", key, k, seq)
	}
	if seq < floor {
		c.stale.Add(1)
		return fmt.Errorf("kv: key %d returned seq %d, older than completed PUT seq %d", key, seq, floor)
	}
	return nil
}

func (c *kvChecker) violations() (uint64, string) {
	s, f, b, m := c.stale.Load(), c.foreign.Load(), c.corrupt.Load(), c.missing.Load()
	return s + f + b + m, fmt.Sprintf("%d stale, %d never written, %d corrupt, %d missing", s, f, b, m)
}
