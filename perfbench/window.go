package main

import "fmt"

// window is the flow control of a one-way stream: the sender may have at
// most size messages issued but not yet counted by the receiver. The
// receiver's count is read from a shared counter, so the accounting costs
// no messages of its own.
type window struct {
	size        uint64
	sent        uint64 // messages issued
	stalls      uint64 // times the sender found the window full
	maxInflight uint64
}

// room returns how many messages may be issued now, given the receiver's
// count. It fails if the receiver counted more than was sent, which only a
// duplicate delivery or an accounting bug can cause.
func (w *window) room(received uint64) (uint64, error) {
	if received > w.sent {
		return 0, fmt.Errorf("window: receiver counted %d of %d sent", received, w.sent)
	}
	inflight := w.sent - received
	if inflight > w.maxInflight {
		w.maxInflight = inflight
	}
	if inflight >= w.size {
		w.stalls++
		return 0, nil
	}
	return w.size - inflight, nil
}

// issued records n more messages sent.
func (w *window) issued(n uint64) { w.sent += n }
