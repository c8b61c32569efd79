package main

import (
	"strings"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	b := make([]byte, recordBytes)
	fillRecord(b, 7, 42, 99)
	w0, w1, ok := readRecord(b, 7)
	if !ok || w0 != 42 || w1 != 99 {
		t.Fatalf("readRecord = %d %d %v", w0, w1, ok)
	}
	if _, _, ok := readRecord(b, 8); ok {
		t.Fatal("record accepted under another seed")
	}
	if _, _, ok := readRecord(b[:recordBytes-8], 7); ok {
		t.Fatal("short record accepted")
	}
}

func TestStreamCheckerCleanRun(t *testing.T) {
	c := newStreamChecker(1, 256)
	b := make([]byte, recordBytes)
	for seq := uint64(0); seq < 100; seq++ {
		c.payload(b, 99-seq) // out of order is fine
		if _, ok := c.deliver(b); !ok {
			t.Fatalf("seq %d rejected", 99-seq)
		}
	}
	if n, desc := c.violations(100); n != 0 {
		t.Fatalf("clean stream reported %s", desc)
	}
}

func TestStreamCheckerFiresOnDuplicate(t *testing.T) {
	c := newStreamChecker(1, 256)
	b := make([]byte, recordBytes)
	for seq := uint64(0); seq < 10; seq++ {
		c.payload(b, seq)
		c.deliver(b)
	}
	c.payload(b, 3)
	if _, ok := c.deliver(b); ok {
		t.Fatal("duplicate accepted")
	}
	if n, desc := c.violations(10); n != 1 || !strings.Contains(desc, "1 duplicated") {
		t.Fatalf("violations %d %q", n, desc)
	}
}

func TestStreamCheckerFiresOnLoss(t *testing.T) {
	c := newStreamChecker(1, 256)
	b := make([]byte, recordBytes)
	for seq := uint64(0); seq < 10; seq++ {
		if seq == 4 || seq == 7 {
			continue
		}
		c.payload(b, seq)
		c.deliver(b)
	}
	if n, desc := c.violations(10); n != 2 || !strings.Contains(desc, "2 lost") {
		t.Fatalf("violations %d %q", n, desc)
	}
}

func TestStreamCheckerFiresOnCorruption(t *testing.T) {
	c := newStreamChecker(1, 256)
	b := make([]byte, recordBytes)
	c.payload(b, 5)
	b[20] ^= 1
	if _, ok := c.deliver(b); ok {
		t.Fatal("corrupt payload accepted")
	}
	// A payload with a valid checksum but an inconsistent body (a
	// different generator) is corrupt too.
	fillRecord(b, 1, 6, 6)
	if _, ok := c.deliver(b); ok {
		t.Fatal("inconsistent payload accepted")
	}
	if n, desc := c.violations(0); n != 2 || !strings.Contains(desc, "2 corrupt") {
		t.Fatalf("violations %d %q", n, desc)
	}
}

func TestStreamCheckerRingReusesSlots(t *testing.T) {
	// Ten generations through a ring of 16: in-order retirement finds
	// every earlier sequence arrived, and the drained check covers the
	// last ring of sequences.
	c := newStreamChecker(1, 16)
	b := make([]byte, recordBytes)
	for seq := uint64(0); seq < 160; seq++ {
		c.retire(seq)
		c.payload(b, seq)
		if _, ok := c.deliver(b); !ok {
			t.Fatalf("seq %d rejected", seq)
		}
	}
	if n, desc := c.violations(160); n != 0 {
		t.Fatalf("clean stream reported %s", desc)
	}
	// A duplicate of a sequence whose slot a later generation now holds
	// is still caught.
	c.payload(b, 150)
	if _, ok := c.deliver(b); ok {
		t.Fatal("duplicate of a reused slot's sequence accepted")
	}
}

func TestStreamCheckerFiresOnLossBeforeSlotReuse(t *testing.T) {
	// Sequence 3 never arrives; the sender finds it missing when sequence
	// 19 needs its slot, long before the stream drains.
	c := newStreamChecker(1, 16)
	b := make([]byte, recordBytes)
	for seq := uint64(0); seq < 40; seq++ {
		c.retire(seq)
		if seq == 3 {
			continue
		}
		c.payload(b, seq)
		c.deliver(b)
	}
	if n, desc := c.violations(40); n != 1 || !strings.Contains(desc, "1 lost") {
		t.Fatalf("violations %d %q", n, desc)
	}
}

func TestCheckEcho(t *testing.T) {
	req := []byte("abcdefgh")
	if err := checkEcho(req, [][]byte{append([]byte(nil), req...)}); err != nil {
		t.Fatal(err)
	}
	bad := [][][]byte{
		nil,                         // no reply blob
		{[]byte("abcdefgh"), nil},   // two blobs
		{[]byte("abcdefg")},         // short
		{[]byte("abcdefgX")},        // corrupt
		{req},                       // aliases the request
		{[]byte("abcdefghi")[:8:8]}, // fine: a distinct equal slice
	}
	for i, rets := range bad[:5] {
		if err := checkEcho(req, rets); err == nil {
			t.Errorf("bad reply %d accepted", i)
		}
	}
	if err := checkEcho(req, bad[5]); err != nil {
		t.Errorf("distinct equal reply rejected: %v", err)
	}
}

// kvGet runs one checked GET against a synthetic store value.
func kvGet(c *kvChecker, key int, stored []byte, found bool) error {
	return c.checkGet(key, c.beginGet(key), stored, found)
}

func TestKVCheckerAcceptsPreloadAndFreshWrites(t *testing.T) {
	c := newKVChecker(3, 4)
	v := make([]byte, recordBytes)
	c.value(v, 2, 0)
	if err := kvGet(c, 2, v, true); err != nil {
		t.Fatal(err)
	}
	p := c.beginPut(2)
	c.value(v, 2, p.seq)
	// A GET concurrent with the PUT may see either value.
	if err := kvGet(c, 2, v, true); err != nil {
		t.Fatal(err)
	}
	c.endPut(p, true)
	if err := kvGet(c, 2, v, true); err != nil {
		t.Fatal(err)
	}
	if n, desc := c.violations(); n != 0 {
		t.Fatal(desc)
	}
}

func TestKVCheckerFiresOnStaleRead(t *testing.T) {
	c := newKVChecker(3, 4)
	old := make([]byte, recordBytes)
	c.value(old, 1, 0)
	p := c.beginPut(1)
	c.endPut(p, true)
	if err := kvGet(c, 1, old, true); err == nil {
		t.Fatal("value older than a completed isolated PUT accepted")
	}
	if n, desc := c.violations(); n != 1 || !strings.Contains(desc, "1 stale") {
		t.Fatalf("violations %d %q", n, desc)
	}
}

func TestKVCheckerOverlappingPutsKeepFloor(t *testing.T) {
	c := newKVChecker(3, 4)
	a := c.beginPut(0)
	b := c.beginPut(0) // overlaps a: the store may apply them in either order
	c.endPut(b, true)
	c.endPut(a, true)
	v := make([]byte, recordBytes)
	c.value(v, 0, a.seq)
	if err := kvGet(c, 0, v, true); err != nil {
		t.Fatalf("either overlapping write may win: %v", err)
	}
	// A later isolated PUT raises the floor past both.
	p := c.beginPut(0)
	c.endPut(p, true)
	c.value(v, 0, b.seq)
	if err := kvGet(c, 0, v, true); err == nil {
		t.Fatal("stale read after an isolated PUT accepted")
	}
	// A failed PUT never raises the floor.
	f := c.beginPut(3)
	c.endPut(f, false)
	c.value(v, 3, 0)
	if err := kvGet(c, 3, v, true); err != nil {
		t.Fatalf("failed PUT raised the floor: %v", err)
	}
}

func TestKVCheckerFiresOnForeignCorruptAndMissing(t *testing.T) {
	c := newKVChecker(3, 4)
	v := make([]byte, recordBytes)
	c.value(v, 1, 0) // key 1's value returned for key 2
	if err := kvGet(c, 2, v, true); err == nil {
		t.Fatal("another key's value accepted")
	}
	p := c.beginPut(1)
	c.value(v, 2, p.seq) // a sequence that was written to key 1, claimed by key 2
	if err := kvGet(c, 2, v, true); err == nil {
		t.Fatal("a sequence never written to the key accepted")
	}
	c.value(v, 2, 99) // a sequence never issued
	if err := kvGet(c, 2, v, true); err == nil {
		t.Fatal("unissued sequence accepted")
	}
	c.value(v, 2, 0)
	v[30] ^= 0x80
	if err := kvGet(c, 2, v, true); err == nil {
		t.Fatal("corrupt value accepted")
	}
	if err := kvGet(c, 2, nil, false); err == nil {
		t.Fatal("missing key accepted")
	}
	n, desc := c.violations()
	if n != 5 || !strings.Contains(desc, "3 never written") || !strings.Contains(desc, "1 corrupt") || !strings.Contains(desc, "1 missing") {
		t.Fatalf("violations %d %q", n, desc)
	}
}
