// Package fabric simulates the low-level network that the communication
// libraries (internal/mpisim, internal/lci) are built on. It stands in for
// the InfiniBand NIC + verbs/libfabric stack of the paper's testbeds.
//
// The simulation reproduces the properties the layers above actually depend
// on, rather than modelling hardware details:
//
//   - Finite link throughput: each (source, destination, rail) link serializes
//     packet transmission according to a configured bandwidth.
//   - Nonzero latency: a packet only becomes visible to the receiver once its
//     computed arrival time has passed.
//   - Progress-driven reception: nothing is delivered until the receiving
//     library polls its Device. This is what makes "who calls progress"
//     (dedicated thread vs. idle worker threads) a meaningful design axis.
//   - Out-of-order delivery: with Rails > 1 packets between the same pair of
//     nodes may arrive out of injection order, as LCI's transport permits.
//   - Shared receive structures: the per-device RX rails are real contention
//     points when many threads poll concurrently.
//
// The datapath is allocation-free and cluster-size-independent in steady
// state: stored packets come from per-device pools and return to them via
// Packet.Release (pool.go); each rail is a bounded ring with a short
// producer lock and an atomic consumer pop; and every device keeps a ready
// index of rails with queued traffic, so Poll visits only rails that have
// (or are about to have) arrivals instead of scanning all Nodes × Rails
// links.
//
// By default delivery is reliable: packets are never dropped or corrupted
// (matching the reliable-connection InfiniBand transport used in the paper).
// Config.Faults injects seeded per-link packet drop, duplication, payload
// corruption and latency spikes; Config.Reliability (implied by active
// faults) enables the link-level ARQ in rel.go that absorbs them — sequence
// numbers, checksums, dedup, cumulative acks and retransmission with
// exponential backoff — so the libraries above still observe exactly-once
// (possibly reordered) delivery, and a dead peer surfaces as HealthDown
// instead of a silent hang.
package fabric

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBackpressure is returned by Inject when the destination rail queue is
// full. The caller is expected to retry later, mirroring the nonblocking
// "temporarily unavailable resources" semantics LCI exposes to its users.
var ErrBackpressure = errors.New("fabric: injection queue full")

// Config describes a simulated cluster interconnect.
type Config struct {
	// Nodes is the number of compute nodes (one Device per node).
	Nodes int
	// LatencyNs is the one-way wire latency per packet in nanoseconds.
	LatencyNs int64
	// GbitsPerSec is the per-rail link bandwidth. Zero disables bandwidth
	// serialization (infinitely fast links).
	GbitsPerSec float64
	// Rails is the number of independent delivery rails per (src, dst) pair.
	// Packets on different rails may be delivered out of order. Must be >= 1;
	// zero defaults to 1.
	Rails int
	// MaxInflight bounds the number of queued packets per rail; Inject
	// returns ErrBackpressure beyond it. Zero means unlimited.
	MaxInflight int
	// PacketOverheadBytes is added to every packet's payload size when
	// computing transmission time (headers, CRCs, ...).
	PacketOverheadBytes int
	// SendGapNs is the per-packet sender occupancy (the LogP model's o/g
	// term): the NIC doorbell/descriptor cost that serializes one node's
	// egress across ALL destinations, unlike per-rail bandwidth. This is
	// what makes a flat fan-out O(N) at its root even on an otherwise
	// uncontended network. Zero (the default) disables the model; the
	// collectives scaling sweep enables it to measure fan-out structure in
	// simulated network time rather than host CPU time.
	SendGapNs int64
	// DevicesPerNode replicates the NIC context per node (the "multiple
	// low-level network contexts" of the paper's §7.2 future work). Device
	// i of a node delivers only to device i of the destination. Zero
	// defaults to 1.
	DevicesPerNode int

	// Faults injects seeded transport faults (see FaultConfig). Any active
	// fault implies Reliability.
	Faults FaultConfig
	// Reliability enables the link-level ARQ even without injected faults,
	// to measure its overhead or to get per-peer health tracking.
	Reliability bool
	// RetransmitTimeoutNs is the base retransmission timeout (wall clock);
	// attempt k backs off exponentially from it with ±25% jitter. Zero
	// defaults to 300µs.
	RetransmitTimeoutNs int64
	// RetryBudget is the number of transmission attempts per packet before
	// the link is declared HealthDown. Zero defaults to 16.
	RetryBudget int
	// AckDelayNs is how long a receiver waits for reverse traffic to
	// piggyback an ack before sending a standalone one. Zero defaults
	// to 100µs.
	AckDelayNs int64
}

// DefaultConfig returns a configuration loosely modelled on a single HDR
// InfiniBand rail (as in the SDSC Expanse system of the paper, Table 2).
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:               nodes,
		LatencyNs:           1000, // ~1us one-way
		GbitsPerSec:         100,  // HDR 2x50Gbps
		Rails:               1,
		PacketOverheadBytes: 64,
	}
}

// defaultRailSlots is the rail ring size when MaxInflight does not bound it;
// bursts beyond it spill to the rail's FIFO overflow list, so "unlimited"
// injection still works — the ring is the fast path, not a hard cap.
const defaultRailSlots = 256

// maxRailSlots caps the rail ring so a huge MaxInflight configures overflow
// spilling rather than huge slot arrays.
const maxRailSlots = 4096

// Network is a simulated interconnect between Config.Nodes nodes.
type Network struct {
	cfg     Config
	start   time.Time
	railCap int         // rail ring slots (power of two)
	devices [][]*Device // [node][deviceIndex]
	trace   func(cat, label string, arg int64)
}

// pow2ceil rounds n up to the next power of two (minimum 2).
func pow2ceil(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// NewNetwork builds the network and Config.DevicesPerNode devices per node.
// Malformed configurations (negative counts, probabilities outside [0, 1])
// are rejected; zero values select documented defaults.
func NewNetwork(cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Rails == 0 {
		cfg.Rails = 1
	}
	if cfg.DevicesPerNode == 0 {
		cfg.DevicesPerNode = 1
	}
	if cfg.Faults.Active() {
		cfg.Reliability = true
		if cfg.Faults.SpikeProb > 0 && cfg.Faults.SpikeNs == 0 {
			cfg.Faults.SpikeNs = 50_000
		}
	}
	if cfg.Reliability {
		if cfg.RetransmitTimeoutNs == 0 {
			cfg.RetransmitTimeoutNs = 300_000
		}
		if cfg.RetryBudget == 0 {
			cfg.RetryBudget = 16
		}
		if cfg.AckDelayNs == 0 {
			cfg.AckDelayNs = 100_000
		}
	}
	n := &Network{cfg: cfg, start: time.Now()}
	n.railCap = defaultRailSlots
	if cfg.MaxInflight > 0 {
		n.railCap = pow2ceil(cfg.MaxInflight)
		if n.railCap > maxRailSlots {
			n.railCap = maxRailSlots
		}
	}
	n.devices = make([][]*Device, cfg.Nodes)
	for i := range n.devices {
		n.devices[i] = make([]*Device, cfg.DevicesPerNode)
		for di := range n.devices[i] {
			d := &Device{net: n, node: i, idx: di}
			d.pool = newPacketPool()
			d.readyIdx = newMPMC[uint32](cfg.Nodes * cfg.Rails)
			d.in = make([][]rail, cfg.Nodes)
			for s := range d.in {
				d.in[s] = make([]rail, cfg.Rails)
				for ri := range d.in[s] {
					r := &d.in[s][ri]
					r.owner = d
					r.id = uint32(s*cfg.Rails + ri)
				}
			}
			if cfg.Reliability {
				d.rel = newRelState(d)
			}
			n.devices[i][di] = d
		}
	}
	return n, nil
}

// SetTrace installs an event sink for reliability events (retransmit, ack,
// corrupt-drop, dup-drop, link-down). Call before traffic starts; the hook
// is read without synchronization on hot paths.
func (n *Network) SetTrace(fn func(cat, label string, arg int64)) { n.trace = fn }

// PeerHealth reports the worst directed-link health from any of src's
// devices toward dst. Always HealthHealthy when reliability is off.
func (n *Network) PeerHealth(src, dst int) Health {
	worst := HealthHealthy
	for _, d := range n.devices[src] {
		if h := d.PeerHealth(dst); h > worst {
			worst = h
		}
	}
	return worst
}

// SetLinkDown administratively cuts the directed link src → dst on every
// device (a one-way partition; cut both directions for a full one).
// Requires reliability; a no-op otherwise.
func (n *Network) SetLinkDown(src, dst int) {
	for _, d := range n.devices[src] {
		if d.rel != nil {
			d.rel.setDown(dst)
		}
	}
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Device returns the first NIC of the given node.
func (n *Network) Device(node int) *Device { return n.devices[node][0] }

// DeviceN returns device idx of the given node.
func (n *Network) DeviceN(node, idx int) *Device { return n.devices[node][idx] }

// nowNs returns monotonic nanoseconds since network creation.
func (n *Network) nowNs() int64 { return time.Since(n.start).Nanoseconds() }

// xmitNs returns the transmission time for a payload of the given size.
func (n *Network) xmitNs(payload int) int64 {
	if n.cfg.GbitsPerSec <= 0 {
		return 0
	}
	bits := float64(payload+n.cfg.PacketOverheadBytes) * 8
	return int64(bits / n.cfg.GbitsPerSec) // Gbit/s == bit/ns
}

// rail is one FIFO delivery lane of a (src, dst) link. Packets within a rail
// stay in order; distinct rails are independent.
//
// The rail is a bounded power-of-two ring. Producers (the source device's
// Inject and its ARQ) serialize on a short mutex that also orders the wire
// clock (nextFreeNs); the consumer side pops with an atomic CAS and no lock.
// Traffic beyond the ring capacity — ARQ retransmissions and acks, whose
// liveness must not depend on queue headroom, or plain injection when
// MaxInflight is unlimited — spills into the FIFO overflow list and migrates
// back into the ring as slots free up, preserving per-rail order.
type rail struct {
	owner *Device // receiving device; its ready index tracks this rail
	id    uint32  // flat index (src*Rails + rail) in the owner's ready index

	// Producer side, under mu.
	mu         sync.Mutex
	enq        uint64
	nextFreeNs int64      // when the rail's "wire" is free again
	slots      []railSlot // allocated on first enqueue (idle rails cost 3 words)
	mask       uint64
	overflow   []*Packet // FIFO tail beyond ring capacity

	deq    atomic.Uint64
	count  atomic.Int64  // packets queued (ring + overflow)
	ovf    atomic.Int64  // packets in overflow
	ready  atomic.Uint32 // 1 while the rail id is in (or held from) the ready index
	headNs atomic.Int64  // arrival hint of a not-yet-arrived head (0 = unknown)
}

// railSlot is one ring slot. seq is the Vyukov lap counter; arrive mirrors
// the packet's arrival time so the consumer can gate on it atomically
// without claiming the slot.
type railSlot struct {
	seq    atomic.Uint64
	arrive atomic.Int64
	pkt    *Packet
}

// notify publishes the rail to its owner's ready index on the quiescent →
// pending transition. The CAS guarantees each rail id is in the index at
// most once, so the index (sized for every rail) can never overflow.
func (r *rail) notify() {
	if r.ready.CompareAndSwap(0, 1) {
		r.owner.park(r.id)
	}
}

// retire marks the rail quiescent after a consumer drained it, re-arming the
// notify edge. The count recheck closes the race with a producer that
// enqueued between the final empty pop and the flag clear.
func (r *rail) retire() {
	r.headNs.Store(0)
	r.ready.Store(0)
	if r.count.Load() > 0 {
		r.notify()
	}
}

// ringPushLocked appends pkt to the ring, failing when the ring is full.
// Caller holds r.mu and has set pkt.arriveNs.
func (r *rail) ringPushLocked(pkt *Packet) bool {
	pos := r.enq
	slot := &r.slots[pos&r.mask]
	if slot.seq.Load() != pos {
		return false // full: the consumer has not retired this lap yet
	}
	slot.pkt = pkt
	slot.arrive.Store(pkt.arriveNs)
	slot.seq.Store(pos + 1)
	r.enq = pos + 1
	return true
}

// flushOverflowLocked migrates overflow packets into free ring slots,
// preserving FIFO order. Caller holds r.mu.
func (r *rail) flushOverflowLocked() {
	n := 0
	for _, pkt := range r.overflow {
		if !r.ringPushLocked(pkt) {
			break
		}
		n++
	}
	if n > 0 {
		rem := copy(r.overflow, r.overflow[n:])
		for i := rem; i < len(r.overflow); i++ {
			r.overflow[i] = nil
		}
		r.overflow = r.overflow[:rem]
		r.ovf.Add(int64(-n))
	}
}

// tryPop pops the rail's head packet if it has arrived by now. The boolean
// reports "blocked": a head exists but has not arrived yet (the caller
// re-parks the rail; the headNs hint was refreshed).
func (r *rail) tryPop(now int64) (*Packet, bool) {
	for {
		pos := r.deq.Load()
		if r.slots == nil {
			return nil, false // never produced into
		}
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		if seq > pos+1 {
			continue // deq advanced under us; reload
		}
		if seq < pos+1 {
			// Ring empty from this side; overflow may still hold packets
			// (they could not enter the ring while it was full).
			if r.ovf.Load() > 0 {
				r.mu.Lock()
				r.flushOverflowLocked()
				r.mu.Unlock()
				continue
			}
			return nil, false
		}
		arr := slot.arrive.Load()
		if arr > now {
			r.headNs.Store(arr)
			return nil, true
		}
		if r.deq.CompareAndSwap(pos, pos+1) {
			p := slot.pkt
			slot.pkt = nil
			slot.seq.Store(pos + r.mask + 1)
			r.headNs.Store(0)
			r.count.Add(-1)
			return p, false
		}
	}
}

// Stats are cumulative per-device counters. The reliability and fault
// counters stay zero when the corresponding feature is off.
type Stats struct {
	InjectedPackets  uint64
	InjectedBytes    uint64
	DeliveredPackets uint64
	DeliveredBytes   uint64
	Backpressured    uint64

	// Reliability-layer counters.
	Retransmits    uint64 // transmission attempts beyond the first
	AcksSent       uint64 // standalone ack-only packets emitted
	CorruptDropped uint64 // arrivals discarded on checksum mismatch
	DupDropped     uint64 // arrivals discarded as duplicates
	DownDropped    uint64 // injects blackholed because the link is down
	LinksDowned    uint64 // links declared HealthDown

	// Fault-injection counters (sender side).
	FaultDropped    uint64 // transmissions dropped on the wire
	FaultDuplicated uint64 // transmissions delivered twice
	FaultCorrupted  uint64 // transmissions with flipped bits
	LatencySpikes   uint64 // transmissions delayed by a spike
}

// Device is a node's network interface. Injection is thread-safe; polling is
// thread-safe — concurrent pollers claim distinct ready rails, so they
// contend only on the ready index, not on a shared lock.
type Device struct {
	net  *Network
	node int
	idx  int // device index within the node

	// in[src][rail] holds packets heading to this device from src.
	in [][]rail

	// readyIdx holds the ids of rails with queued traffic. Producers push a
	// rail id on its quiescent → pending edge; Poll drains ready rails and
	// re-parks the ones whose head has not arrived yet, so poll cost scales
	// with traffic, not with cluster size.
	readyIdx *mpmc[uint32]

	pool *packetPool // recycled stored packets (see pool.go)

	railRR atomic.Uint64 // round-robin rail selector for injection

	// sendFreeNs is when this device's egress next becomes free under the
	// SendGapNs occupancy model (0 when the model is off).
	sendFreeNs atomic.Int64

	rel *relState // reliability engine; nil when Config.Reliability is off

	injectedPackets  atomic.Uint64
	injectedBytes    atomic.Uint64
	deliveredPackets atomic.Uint64
	deliveredBytes   atomic.Uint64
	backpressured    atomic.Uint64

	retransmits     atomic.Uint64
	acksSent        atomic.Uint64
	corruptDropped  atomic.Uint64
	dupDropped      atomic.Uint64
	downDropped     atomic.Uint64
	linksDowned     atomic.Uint64
	faultDropped    atomic.Uint64
	faultDuplicated atomic.Uint64
	faultCorrupted  atomic.Uint64
	latencySpikes   atomic.Uint64
}

// trace emits a reliability event to the network's trace hook, if any.
func (d *Device) trace(cat, label string, arg int64) {
	if fn := d.net.trace; fn != nil {
		fn(cat, label, arg)
	}
}

// PeerHealth reports this device's directed-link health toward dst.
// Always HealthHealthy when reliability is off.
func (d *Device) PeerHealth(dst int) Health {
	if d.rel == nil || dst < 0 || dst >= len(d.rel.tx) {
		return HealthHealthy
	}
	return d.rel.health(dst)
}

// Node returns the node id of this device.
func (d *Device) Node() int { return d.node }

// Index returns the device index within its node.
func (d *Device) Index() int { return d.idx }

// railByID maps a ready-index id back to its rail.
func (d *Device) railByID(id uint32) *rail {
	rails := len(d.in[0])
	return &d.in[int(id)/rails][int(id)%rails]
}

// Inject transmits a packet from this device to p.Dst. The payload is copied
// into a pooled fabric-owned buffer (the "DMA"), so the caller may reuse its
// buffer immediately — this is what lets the LCI layer return pool packets
// to its freelist as soon as the send is injected.
//
// Inject returns ErrBackpressure when the destination rail is full. With
// reliability on, injection into a HealthDown link succeeds silently (the
// packet is blackholed; upper layers observe the dead peer through health
// queries and delivery timeouts).
func (d *Device) Inject(p Packet) error {
	if p.Dst < 0 || p.Dst >= len(d.net.devices) {
		return fmt.Errorf("fabric: invalid destination node %d", p.Dst)
	}
	p.Src = d.node
	r := d.railFor(p.Dst, p.Rail)

	// The reliable path copies the payload itself, into a recycled
	// retransmission buffer.
	if d.rel != nil {
		return d.rel.inject(&p, r)
	}

	r.mu.Lock()
	if max := d.net.cfg.MaxInflight; max > 0 && int(r.count.Load()) >= max {
		r.mu.Unlock()
		d.backpressured.Add(1)
		return ErrBackpressure
	}
	d.enqueueLocked(r, d.newStored(&p), 0)
	r.mu.Unlock()
	r.notify()

	d.injectedPackets.Add(1)
	d.injectedBytes.Add(uint64(len(p.Data)))
	return nil
}

// InjectBatch injects pkts in order, amortizing the per-rail producer lock
// across runs of consecutive packets to the same destination and rail
// selector (one rail per run — a run of unpinned packets shares one
// round-robin pick, and a rail-major chunk stream forms one run per rail).
// It returns how many packets were injected; on backpressure or an invalid
// destination it stops there, so the caller retries pkts[n:].
func (d *Device) InjectBatch(pkts []Packet) (int, error) {
	buffered := d.rel != nil && d.rel.buffered
	for i := 0; i < len(pkts); {
		dst := pkts[i].Dst
		if dst < 0 || dst >= len(d.net.devices) {
			return i, fmt.Errorf("fabric: invalid destination node %d", dst)
		}
		if buffered {
			// The fault-absorbing ARQ does per-packet window bookkeeping;
			// no run amortization there.
			p := pkts[i]
			p.Src = d.node
			if err := d.rel.inject(&p, d.railFor(dst, p.Rail)); err != nil {
				return i, err
			}
			i++
			continue
		}
		j := i + 1
		for j < len(pkts) && pkts[j].Dst == dst && pkts[j].Rail == pkts[i].Rail {
			j++
		}
		n, err := d.injectRun(pkts[i:j])
		i += n
		if err != nil {
			return i, err
		}
	}
	return len(pkts), nil
}

// injectRun injects a run of same-destination packets under one producer
// lock acquisition. Handles the baseline and lossless-reliability paths
// (InjectBatch routes the buffered ARQ around it).
func (d *Device) injectRun(run []Packet) (int, error) {
	dst := run[0].Dst
	var tl *txLink
	var rx *rxLink
	if d.rel != nil {
		tl = d.rel.tx[dst]
		if tl.downF.Load() {
			d.downDropped.Add(uint64(len(run)))
			return len(run), nil // blackholed: upper layers time out
		}
		rx = d.rel.rx[dst]
	}
	r := d.railFor(dst, run[0].Rail)
	max := d.net.cfg.MaxInflight
	n := 0
	var bytes uint64
	r.mu.Lock()
	for k := range run {
		if max > 0 && int(r.count.Load()) >= max {
			break
		}
		p := &run[k]
		p.Src = d.node
		stored := d.newStored(p)
		if tl != nil {
			stored.relSeq = tl.seqF.Add(1)
			stored.relFlags = flagRel | flagSeq
			stored.relAck = rx.cum.Load()
			rx.ackOwedNs.Store(0) // this transmission carries the ack
		}
		d.enqueueLocked(r, stored, 0)
		n++
		bytes += uint64(len(p.Data))
	}
	r.mu.Unlock()
	if n > 0 {
		r.notify()
		d.injectedPackets.Add(uint64(n))
		d.injectedBytes.Add(bytes)
	}
	if n < len(run) {
		d.backpressured.Add(1)
		return n, ErrBackpressure
	}
	return n, nil
}

// railFor picks the destination rail for one transmission to dst: the
// RailPin-encoded rail when pin > 0 (taken modulo the rail count), the
// round-robin rotation otherwise. Device i talks to device i: replicated
// contexts are independent lanes. The rotation arithmetic stays in uint64
// the whole way: converting the counter to int first (as an earlier
// revision did) goes negative at wraparound and a negative % would index
// out of bounds.
func (d *Device) railFor(dst int, pin int) *rail {
	dstDev := d.net.devices[dst][d.idx]
	railIdx := 0
	if rails := d.net.cfg.Rails; rails > 1 {
		if pin > 0 {
			railIdx = (pin - 1) % rails
		} else {
			railIdx = int(d.railRR.Add(1) % uint64(rails))
		}
	}
	return &dstDev.in[d.node][railIdx]
}

// Rails reports the configured rail count, so layers striping a transfer
// across rails (the chunked rendezvous path) know how wide they can go.
func (d *Device) Rails() int { return d.net.cfg.Rails }

// reserveSendSlot claims the device's next egress slot under the SendGapNs
// occupancy model: the packet starts transmitting no earlier than the
// device's egress is free, and occupies it for g thereafter. Lock-free so
// concurrent sends to different rails (whose mutexes differ) serialize only
// on this one atomic.
func (d *Device) reserveSendSlot(now, g int64) int64 {
	for {
		free := d.sendFreeNs.Load()
		slot := now
		if free > slot {
			slot = free
		}
		if d.sendFreeNs.CompareAndSwap(free, slot+g) {
			return slot
		}
	}
}

// enqueue places pkt on rail r under the latency/bandwidth model, with
// extraNs of additional one-way latency (fault spikes). It never applies
// backpressure — reliability-layer callers pre-check or deliberately bypass
// the cap (ARQ liveness must not depend on queue headroom; the overflow
// list absorbs what the ring cannot).
func (d *Device) enqueue(r *rail, pkt *Packet, extraNs int64) {
	r.mu.Lock()
	d.enqueueLocked(r, pkt, extraNs)
	r.mu.Unlock()
	r.notify()
}

// enqueueLocked is enqueue with r.mu held; the caller runs r.notify() after
// unlocking.
func (d *Device) enqueueLocked(r *rail, pkt *Packet, extraNs int64) {
	now := d.net.nowNs()
	if g := d.net.cfg.SendGapNs; g > 0 {
		now = d.reserveSendSlot(now, g)
	}
	xmit := d.net.xmitNs(len(pkt.Data))
	start := now
	if r.nextFreeNs > start {
		start = r.nextFreeNs
	}
	r.nextFreeNs = start + xmit
	pkt.arriveNs = start + xmit + d.net.cfg.LatencyNs + extraNs
	if r.slots == nil {
		n := d.net.railCap
		r.slots = make([]railSlot, n)
		for i := range r.slots {
			r.slots[i].seq.Store(uint64(i))
		}
		r.mask = uint64(n - 1)
	}
	if r.ovf.Load() > 0 {
		r.flushOverflowLocked()
	}
	if len(r.overflow) > 0 || !r.ringPushLocked(pkt) {
		r.overflow = append(r.overflow, pkt)
		r.ovf.Add(1)
	}
	r.count.Add(1)
}

// park puts rail id into the ready index. The index has room for every
// rail and holds each id at most once, yet TryPush still fails while a
// poller that popped the slot's previous occupant has not released the
// slot (it was preempted between its claim and its release). A dropped id
// would strand the rail's packets for good, so yield until that poller
// has finished.
func (d *Device) park(id uint32) {
	for !d.readyIdx.TryPush(id) {
		runtime.Gosched()
	}
}

// Poll returns one arrived packet destined to this device, or nil if none
// has arrived yet. It drains the device's ready index — only rails with
// queued traffic are visited, so an idle or mostly-idle device polls in O(1)
// regardless of cluster size. Rails whose head has not arrived yet re-park
// cheaply behind an atomic arrival hint. With reliability on it first runs
// the time-gated ARQ maintenance (retransmissions, standalone acks) and
// filters arrivals through the reliability layer — corrupt packets,
// duplicates and ack-only packets are consumed (and released) here and
// never surface.
//
// The returned packet is owned by the caller, who must Release it.
func (d *Device) Poll() *Packet {
	if d.rel != nil {
		d.rel.maintain()
	}
	now := d.net.nowNs()
	// Visit each currently-ready rail at most once per call: re-parked
	// rails go behind the entries counted here.
	for budget := d.readyIdx.Len() + 1; budget > 0; budget-- {
		id, ok := d.readyIdx.TryPop()
		if !ok {
			return nil
		}
		r := d.railByID(id)
		if hint := r.headNs.Load(); hint > now {
			d.park(id) // head not arrived: re-park cheaply
			continue
		}
		for {
			p, blocked := r.tryPop(now)
			if p == nil {
				if blocked {
					d.park(id)
				} else {
					r.retire()
				}
				break
			}
			if d.rel != nil && !d.rel.admit(p) {
				p.Release() // consumed by the ARQ; try the same rail again
				continue
			}
			d.park(id) // more arrivals may be queued behind
			d.deliveredPackets.Add(1)
			d.deliveredBytes.Add(uint64(len(p.Data)))
			return p
		}
	}
	return nil
}

// PollInto appends up to max arrived packets to out and returns the extended
// slice. It is the batched form of Poll used by progress engines. Every
// appended packet is owned by the caller (Release each).
func (d *Device) PollInto(out []*Packet, max int) []*Packet {
	for i := 0; i < max; i++ {
		p := d.Poll()
		if p == nil {
			break
		}
		out = append(out, p)
	}
	return out
}

// Pending reports whether any packet is queued for this device, arrived or
// not. Intended for tests and shutdown draining.
func (d *Device) Pending() bool {
	for s := range d.in {
		for ri := range d.in[s] {
			if d.in[s][ri].count.Load() > 0 {
				return true
			}
		}
	}
	return false
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		InjectedPackets:  d.injectedPackets.Load(),
		InjectedBytes:    d.injectedBytes.Load(),
		DeliveredPackets: d.deliveredPackets.Load(),
		DeliveredBytes:   d.deliveredBytes.Load(),
		Backpressured:    d.backpressured.Load(),
		Retransmits:      d.retransmits.Load(),
		AcksSent:         d.acksSent.Load(),
		CorruptDropped:   d.corruptDropped.Load(),
		DupDropped:       d.dupDropped.Load(),
		DownDropped:      d.downDropped.Load(),
		LinksDowned:      d.linksDowned.Load(),
		FaultDropped:     d.faultDropped.Load(),
		FaultDuplicated:  d.faultDuplicated.Load(),
		FaultCorrupted:   d.faultCorrupted.Load(),
		LatencySpikes:    d.latencySpikes.Load(),
	}
}
