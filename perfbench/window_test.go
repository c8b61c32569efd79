package main

import "testing"

func TestWindowNeverExceedsSize(t *testing.T) {
	w := window{size: 8}
	received := uint64(0)
	for step := 0; step < 1000; step++ {
		n, err := w.room(received)
		if err != nil {
			t.Fatal(err)
		}
		w.issued(n)
		if w.sent-received > w.size {
			t.Fatalf("step %d: %d in flight, window %d", step, w.sent-received, w.size)
		}
		// The receiver drains a varying amount.
		received += uint64(step%3) * (w.sent - received) / 2
	}
	if w.maxInflight > w.size {
		t.Fatalf("maxInflight %d > size %d", w.maxInflight, w.size)
	}
}

func TestWindowAccounting(t *testing.T) {
	w := window{size: 4}
	if n, _ := w.room(0); n != 4 {
		t.Fatalf("empty window room %d, want 4", n)
	}
	w.issued(4)
	if n, _ := w.room(0); n != 0 || w.stalls != 1 {
		t.Fatalf("full window: room %d stalls %d, want 0 1", n, w.stalls)
	}
	if n, _ := w.room(3); n != 3 || w.maxInflight != 4 {
		t.Fatalf("after 3 arrivals: room %d max %d, want 3 4", n, w.maxInflight)
	}
	w.issued(3)
	if n, _ := w.room(7); n != 4 {
		t.Fatalf("drained window room %d, want 4", n)
	}
	if w.stalls != 1 {
		t.Fatalf("stalls %d, want 1", w.stalls)
	}
}

func TestWindowRejectsOvercount(t *testing.T) {
	w := window{size: 4}
	w.issued(2)
	if _, err := w.room(3); err == nil {
		t.Fatal("receiver counting more than sent must fail")
	}
}
