package fabric

import (
	"testing"
	"time"
)

// TestHealthHysteresisUnit drives the txLink health accounting directly
// through the same methods the ARQ uses and checks the enter/exit
// hysteresis: Degraded enters at degradedAfter retransmissions since
// effective ack progress, survives interleaved ack progress under steady
// partial loss (the decay halves the counter instead of resetting it), and
// exits only after a clean run of acks with no fresh retransmissions.
func TestHealthHysteresisUnit(t *testing.T) {
	tl := &txLink{}
	health := func() bool { return tl.degraded }

	// Clean link: acks never degrade.
	for i := 0; i < 10; i++ {
		tl.noteAckProgressLocked()
	}
	if health() {
		t.Fatal("clean link reports degraded")
	}

	// Enter: degradedAfter consecutive retransmissions.
	for i := 0; i < degradedAfter; i++ {
		tl.noteRetransmitLocked()
	}
	if !health() {
		t.Fatalf("link not degraded after %d retransmissions", degradedAfter)
	}

	// Steady partial loss: retransmissions and acks interleave. The old
	// reset-on-ack logic flipped back to healthy on every ack; the decay
	// must hold the link in Degraded throughout.
	for round := 0; round < 20; round++ {
		tl.noteRetransmitLocked()
		tl.noteRetransmitLocked()
		tl.noteAckProgressLocked()
		if !health() {
			t.Fatalf("health flapped to healthy at round %d (counter=%d)", round, tl.retransSinceAck)
		}
	}

	// Recovery: ack progress with no fresh retransmissions decays the
	// counter to zero and exits Degraded within a bounded number of acks.
	for i := 0; i < 8 && health(); i++ {
		tl.noteAckProgressLocked()
	}
	if health() {
		t.Fatal("link never recovered to healthy after loss stopped")
	}
}

// TestHealthNoFlappingUnderSteadyLoss runs real traffic through the ARQ
// under seeded steady drop faults and counts health transitions observed at
// every poll. With the pre-hysteresis logic (reset retransSinceAck on any
// ack) the link oscillated healthy↔degraded continuously; with the decay it
// must settle: bounded transitions over the whole run.
func TestHealthNoFlappingUnderSteadyLoss(t *testing.T) {
	n := mustNet(t, Config{
		Nodes:               2,
		Faults:              FaultConfig{DropProb: 0.35, Seed: 11},
		RetransmitTimeoutNs: 50_000,
		AckDelayNs:          25_000,
		RetryBudget:         1 << 20, // never down the link
	})
	a, b := n.Device(0), n.Device(1)

	const total = 400
	transitions := 0
	prev := a.PeerHealth(1)
	sent, recvd := 0, 0
	deadline := time.Now().Add(30 * time.Second)
	for recvd < total {
		if time.Now().After(deadline) {
			t.Fatalf("delivered only %d/%d before deadline", recvd, total)
		}
		if sent < total {
			if err := a.Inject(Packet{Dst: 1, T0: uint64(sent), Data: []byte("x")}); err == nil {
				sent++
			}
		}
		if p := b.Poll(); p != nil {
			recvd++
			p.Release()
		}
		a.Poll()
		if h := a.PeerHealth(1); h != prev {
			transitions++
			prev = h
		}
	}
	if a.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions under 35% drop; test is vacuous")
	}
	// Entering Degraded once and recovering once is legitimate; a few more
	// edges can occur around the loss-rate boundary. Flapping per-ack would
	// produce hundreds.
	if transitions > 8 {
		t.Fatalf("health flapped: %d transitions over %d messages", transitions, total)
	}
}
