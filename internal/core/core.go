// Package core is the public facade of the runtime: the analogue of the HPX
// programming model the paper's benchmarks are written against. It assembles
// the whole stack — simulated fabric, communication library (MPI-like or
// LCI-like), parcelport, parcel layer and per-locality task schedulers — and
// exposes localities, registered actions, fire-and-forget Apply and
// future-returning Call.
//
// All localities of the simulated cluster live in one process; each has its
// own scheduler (worker pool), parcelport instance and parcel layer,
// communicating exclusively through the fabric.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"hpxgo/internal/amt"
	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/mpisim"
	"hpxgo/internal/parcel"
	"hpxgo/internal/parcelport"
	"hpxgo/internal/parcelport/lcipp"
	"hpxgo/internal/parcelport/mpipp"
	"hpxgo/internal/parcelport/tcppp"
	"hpxgo/internal/serialization"
	"hpxgo/internal/trace"
)

// continuationAction is the reserved action id that completes Call futures.
const continuationAction = 0

// ErrPeerUnreachable is wrapped into the errors of Call futures and Apply
// when the fabric declared the destination HealthDown, or a Call exceeded
// Config.DeliveryTimeout. Test with errors.Is.
var ErrPeerUnreachable = errors.New("core: peer unreachable")

// ActionFunc is a registered remote action: it runs as a task on the target
// locality and returns result blobs (nil for void actions).
type ActionFunc func(loc *Locality, args [][]byte) [][]byte

// Config assembles a runtime.
type Config struct {
	// Localities is the number of simulated compute nodes. Default 2.
	Localities int
	// WorkersPerLocality is the worker-thread count per locality. Default 2.
	WorkersPerLocality int
	// Parcelport is the Table 1 configuration name (e.g. "mpi_i",
	// "lci_psr_cq_pin_i"). Default "lci" (the baseline).
	Parcelport string
	// ZeroCopyThreshold is HPX's zero-copy serialization threshold.
	// Default 8192.
	ZeroCopyThreshold int
	// MaxConnections caps the connection cache per destination. Default 8192.
	MaxConnections int
	// MaxMessageBytes bounds one aggregated HPX message (0 = unlimited).
	MaxMessageBytes int
	// Aggregation enables the sender-side parcel aggregation layer (also
	// selectable with a trailing "_agg" on the Parcelport name): small
	// same-destination messages coalesce into one fabric transfer, flushed
	// on size, age or backpressure.
	Aggregation bool
	// AggFlushBytes is the aggregation flush size threshold (default 4096).
	AggFlushBytes int
	// AggFlushDelay bounds how long a buffered message may wait (default 50µs).
	AggFlushDelay time.Duration
	// AggMaxQueued caps buffered sub-messages per destination; reaching it
	// forces a flush. Default parcelport.MaxPendingConnections.
	AggMaxQueued int
	// InlineBudget caps how many small parcels of one delivered message may
	// run to completion directly on the draining goroutine (the inline
	// lane) before the remainder spills to spawned tasks. Only actions
	// registered with an inline hint (RegisterInlineAction/MarkActionInline)
	// are eligible. Zero selects DefaultInlineBudget; negative disables
	// inline execution entirely (every parcel spawns).
	InlineBudget int
	// DrainBatch is the completion-drain budget: how many completion
	// records one parcelport background pass consumes, shared round-robin
	// across all of the port's completion queues. The LCI progress engine
	// derives its per-pass fabric-event batch as 2×DrainBatch (the 32:64
	// ratio of the transport defaults), and the MPI parcelport bounds its
	// pending-connection sweep with the same value. Zero selects the
	// transport defaults (lcipp.DefaultDrainBatch / lci.DefaultProgressBatch).
	DrainBatch int
	// Fabric configures the simulated interconnect (Nodes is overwritten
	// with Localities). Zero value selects fabric.DefaultConfig.
	Fabric fabric.Config
	// LCI tunes the LCI library (LCI parcelports only).
	LCI lci.Config
	// LCIDevices replicates the LCI device (and its fabric context) per
	// locality — the §7.2 future-work configuration. Default 1.
	LCIDevices int
	// MPI tunes the MPI library (MPI parcelports only).
	MPI mpisim.Config
	// IdleSleep tunes worker backoff; see amt.Config.
	IdleSleep time.Duration
	// DeliveryTimeout bounds how long a Call future may wait for its remote
	// result before failing with ErrPeerUnreachable. Zero disables the
	// deadline; continuations to peers the fabric declares HealthDown are
	// reaped regardless whenever the fabric's reliability layer is active.
	DeliveryTimeout time.Duration
}

func (c *Config) fillDefaults() {
	if c.Localities <= 0 {
		c.Localities = 2
	}
	if c.WorkersPerLocality <= 0 {
		c.WorkersPerLocality = 2
	}
	if c.Parcelport == "" {
		c.Parcelport = "lci"
	}
	if c.ZeroCopyThreshold <= 0 {
		c.ZeroCopyThreshold = serialization.DefaultZeroCopyThreshold
	}
	if c.Fabric.Nodes == 0 && c.Fabric.LatencyNs == 0 && c.Fabric.GbitsPerSec == 0 {
		// Fill in the interconnect model field-wise so a config that only
		// sets fault/reliability knobs (or Rails etc.) keeps them.
		def := fabric.DefaultConfig(c.Localities)
		c.Fabric.LatencyNs = def.LatencyNs
		c.Fabric.GbitsPerSec = def.GbitsPerSec
		if c.Fabric.Rails == 0 {
			c.Fabric.Rails = def.Rails
		}
		if c.Fabric.PacketOverheadBytes == 0 {
			c.Fabric.PacketOverheadBytes = def.PacketOverheadBytes
		}
	}
	if c.LCIDevices <= 0 {
		c.LCIDevices = 1
	}
	c.Fabric.Nodes = c.Localities
	if c.Fabric.DevicesPerNode < c.LCIDevices {
		c.Fabric.DevicesPerNode = c.LCIDevices
	}
}

// Runtime is the simulated cluster: all localities plus the shared fabric
// and action registry.
type Runtime struct {
	cfg    Config
	ppCfg  parcelport.Config
	net    *fabric.Network
	locs   []*Locality
	world  *mpisim.World // MPI transport only
	tcpg   *tcppp.Group  // TCP transport only
	tracer *trace.Tracer
	regMu  sync.RWMutex
	byName map[string]uint32
	byID   []ActionFunc
	names  []string
	inline []bool // per-action inline hint (parallel to byID)

	// actionTab is the immutable snapshot of byID published at Start: the
	// registry is sealed then, so per-parcel dispatch reads one atomic
	// pointer instead of taking regMu.
	actionTab atomic.Pointer[[]ActionFunc]
	// inlineTab is the sealed snapshot of the inline hints, published with
	// actionTab. The receive path consults it per parcel, lock-free.
	inlineTab atomic.Pointer[[]bool]
	// actionSvc is the per-action inline service-time EWMA in ns (α = 1/4),
	// sized to the sealed registry at Start. An action whose EWMA crosses
	// the heavy threshold loses inline eligibility until it lightens —
	// the safety escape that keeps a mis-hinted action from stalling the
	// completion drain indefinitely.
	actionSvc []atomic.Int64

	// Collectives subsystem (see collectives.go): reserved relay-action ids,
	// the per-call fold table, and the collective-id allocator.
	coll collRuntime

	started atomic.Bool
	stopped atomic.Bool
}

// NewRuntime builds (but does not start) a runtime. Register actions, then
// call Start.
func NewRuntime(cfg Config) (*Runtime, error) {
	cfg.fillDefaults()
	ppCfg, err := parcelport.ParseConfig(cfg.Parcelport)
	if err != nil {
		return nil, err
	}
	if cfg.Aggregation {
		ppCfg.Aggregate = true
	}
	net, err := fabric.NewNetwork(cfg.Fabric)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, ppCfg: ppCfg, net: net, byName: make(map[string]uint32), tracer: trace.New(0)}
	net.SetTrace(rt.tracer.Emit)
	// Reserve the continuation action. It is inline-hinted: Future.Set is
	// non-blocking (mutex, close, callback spawns), so completing a Call on
	// the draining goroutine saves the spawn that dominates small-response
	// latency.
	rt.byID = append(rt.byID, rt.runContinuation)
	rt.names = append(rt.names, "__continuation")
	rt.byName["__continuation"] = continuationAction
	rt.inline = append(rt.inline, true)
	// The no-op used by Barrier (trivially inline-safe).
	rt.byID = append(rt.byID, func(*Locality, [][]byte) [][]byte { return nil })
	rt.names = append(rt.names, barrierActionName)
	rt.byName[barrierActionName] = uint32(len(rt.byID) - 1)
	rt.inline = append(rt.inline, true)
	// The tree-collective relay and data-plane actions (collectives.go).
	rt.registerCollectiveActions()

	switch ppCfg.Transport {
	case parcelport.TransportMPI:
		rt.world = mpisim.NewWorld(net, cfg.MPI)
	case parcelport.TransportTCP:
		g, err := tcppp.NewGroup(cfg.Localities, tcppp.Config{})
		if err != nil {
			return nil, err
		}
		rt.tcpg = g
	}
	rt.locs = make([]*Locality, cfg.Localities)
	for i := range rt.locs {
		loc, err := rt.buildLocality(i)
		if err != nil {
			return nil, err
		}
		rt.locs[i] = loc
	}
	return rt, nil
}

// buildLocality wires scheduler, parcelport and parcel layer for node i.
func (rt *Runtime) buildLocality(i int) (*Locality, error) {
	loc := &Locality{rt: rt, id: i, conts: make(map[uint64]contEntry), collBoxes: make(map[uint64]*collBox)}
	loc.sched = amt.New(amt.Config{
		Workers:   rt.cfg.WorkersPerLocality,
		Name:      fmt.Sprintf("locality-%d", i),
		IdleSleep: rt.cfg.IdleSleep,
	})
	switch rt.ppCfg.Transport {
	case parcelport.TransportMPI:
		loc.pp = mpipp.New(rt.world.Comm(i), mpipp.Config{
			ZeroCopyThreshold: rt.cfg.ZeroCopyThreshold,
			Original:          rt.ppCfg.Original,
			DrainBatch:        rt.cfg.DrainBatch,
		})
	case parcelport.TransportLCI:
		lciCfg := rt.cfg.LCI
		if rt.cfg.DrainBatch > 0 && lciCfg.ProgressBatch <= 0 {
			// One drain knob, two engines: the progress engine's fabric-event
			// batch tracks 2× the completion-drain budget, the 64:32 ratio of
			// the transport defaults.
			lciCfg.ProgressBatch = 2 * rt.cfg.DrainBatch
		}
		devs := make([]*lci.Device, rt.cfg.LCIDevices)
		for di := range devs {
			devs[di] = lci.NewDevice(rt.net.DeviceN(i, di), lciCfg, nil)
		}
		pp, err := lcipp.NewMulti(devs, loc.sched, lcipp.Config{
			ZeroCopyThreshold: rt.cfg.ZeroCopyThreshold,
			Protocol:          rt.ppCfg.Protocol,
			Completion:        rt.ppCfg.Completion,
			Progress:          rt.ppCfg.Progress,
			DrainBatch:        rt.cfg.DrainBatch,
		})
		if err != nil {
			return nil, err
		}
		loc.pp = pp
		loc.lciDev = devs[0]
	case parcelport.TransportTCP:
		loc.pp = rt.tcpg.Parcelport(i)
	}
	if rt.ppCfg.Aggregate {
		agg := parcelport.NewAggregator(loc.pp, rt.cfg.Localities, parcelport.AggConfig{
			FlushBytes: rt.cfg.AggFlushBytes,
			FlushDelay: rt.cfg.AggFlushDelay,
			MaxQueued:  rt.cfg.AggMaxQueued,
		})
		if lpp, ok := loc.pp.(*lcipp.Parcelport); ok && rt.ppCfg.Progress == parcelport.PinnedProgress {
			// In pin mode idle workers may all be busy with tasks, so the
			// dedicated progress thread drives the age-based flush too.
			lpp.SetProgressHook(agg.FlushStale)
		}
		loc.pp = agg
	}
	loc.layer = parcel.NewLayer(rt.cfg.Localities, parcel.Config{
		ZeroCopyThreshold: rt.cfg.ZeroCopyThreshold,
		MaxConnections:    rt.cfg.MaxConnections,
		Immediate:         rt.ppCfg.Immediate,
		MaxMessageBytes:   rt.cfg.MaxMessageBytes,
	}, loc.pp.Send)
	if agg, ok := loc.pp.(*parcelport.Aggregator); ok {
		// Warm-path shortcut: encode small parcels straight into the bundle
		// buffer instead of through a per-message scratch.
		loc.layer.SetParcelSender(agg.SendParcel)
	}
	bg := loc.pp.BackgroundWork
	if rt.cfg.DeliveryTimeout > 0 || rt.net.Config().Reliability {
		// Fold the continuation reaper into background work so delivery
		// timeouts and dead peers are noticed without a dedicated thread.
		loc.sched.SetBackground(func(workerID int) bool {
			did := bg(workerID)
			if loc.reapDeadContinuations() {
				did = true
			}
			return did
		})
	} else {
		loc.sched.SetBackground(bg)
	}
	return loc, nil
}

// RegisterAction registers fn under name on every locality. Must be called
// before Start; registration is process-wide so action ids agree everywhere.
func (rt *Runtime) RegisterAction(name string, fn ActionFunc) (uint32, error) {
	if rt.started.Load() {
		return 0, fmt.Errorf("core: RegisterAction(%q) after Start", name)
	}
	rt.regMu.Lock()
	defer rt.regMu.Unlock()
	if _, dup := rt.byName[name]; dup {
		return 0, fmt.Errorf("core: action %q already registered", name)
	}
	id := uint32(len(rt.byID))
	rt.byID = append(rt.byID, fn)
	rt.names = append(rt.names, name)
	rt.byName[name] = id
	rt.inline = append(rt.inline, false)
	return id, nil
}

// MustRegisterAction is RegisterAction, panicking on error (init-time use).
func (rt *Runtime) MustRegisterAction(name string, fn ActionFunc) uint32 {
	id, err := rt.RegisterAction(name, fn)
	if err != nil {
		panic(err)
	}
	return id
}

// RegisterInlineAction registers fn with the inline hint: the action
// promises to be small and non-blocking (no future waits, no long compute,
// no unbounded locks), so the receive path may run it to completion on the
// draining goroutine instead of spawning a task. A hinted action that
// nonetheless runs long is demoted by the service-time escape (see
// actionSvc); one that *blocks* stalls its drain goroutine until the
// scheduler's other workers pick up the slack — the hint is a promise, not
// a sandbox.
func (rt *Runtime) RegisterInlineAction(name string, fn ActionFunc) (uint32, error) {
	id, err := rt.RegisterAction(name, fn)
	if err != nil {
		return 0, err
	}
	rt.regMu.Lock()
	rt.inline[id] = true
	rt.regMu.Unlock()
	return id, nil
}

// MustRegisterInlineAction is RegisterInlineAction, panicking on error.
func (rt *Runtime) MustRegisterInlineAction(name string, fn ActionFunc) uint32 {
	id, err := rt.RegisterInlineAction(name, fn)
	if err != nil {
		panic(err)
	}
	return id
}

// MarkActionInline sets the inline hint on an already-registered action
// (same promise as RegisterInlineAction). Must be called before Start.
func (rt *Runtime) MarkActionInline(name string) error {
	if rt.started.Load() {
		return fmt.Errorf("core: MarkActionInline(%q) after Start", name)
	}
	rt.regMu.Lock()
	defer rt.regMu.Unlock()
	id, ok := rt.byName[name]
	if !ok {
		return fmt.Errorf("core: MarkActionInline: unknown action %q", name)
	}
	rt.inline[id] = true
	return nil
}

// ActionID resolves a registered action name.
func (rt *Runtime) ActionID(name string) (uint32, bool) {
	rt.regMu.RLock()
	defer rt.regMu.RUnlock()
	id, ok := rt.byName[name]
	return id, ok
}

// action returns the handler for an id, or nil. After Start it is lock-free
// (one atomic load of the sealed table); before Start it falls back to the
// registration lock.
func (rt *Runtime) action(id uint32) ActionFunc {
	if tab := rt.actionTab.Load(); tab != nil {
		t := *tab
		if int(id) >= len(t) {
			return nil
		}
		return t[id]
	}
	rt.regMu.RLock()
	defer rt.regMu.RUnlock()
	if int(id) >= len(rt.byID) {
		return nil
	}
	return rt.byID[id]
}

// Start launches every locality's parcelport and scheduler.
func (rt *Runtime) Start() error {
	if !rt.started.CompareAndSwap(false, true) {
		return fmt.Errorf("core: runtime already started")
	}
	// The registry is sealed now (RegisterAction rejects once started):
	// publish the immutable action table for lock-free dispatch.
	rt.regMu.RLock()
	tab := append([]ActionFunc(nil), rt.byID...)
	itab := append([]bool(nil), rt.inline...)
	rt.regMu.RUnlock()
	rt.actionSvc = make([]atomic.Int64, len(tab))
	rt.actionTab.Store(&tab)
	rt.inlineTab.Store(&itab)
	for _, loc := range rt.locs {
		loc := loc
		if err := loc.pp.Start(loc.deliver); err != nil {
			return err
		}
		if err := loc.sched.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Shutdown stops schedulers and parcelports. In-flight work is abandoned.
func (rt *Runtime) Shutdown() {
	if !rt.stopped.CompareAndSwap(false, true) {
		return
	}
	for _, loc := range rt.locs {
		loc.sched.Stop()
	}
	for _, loc := range rt.locs {
		loc.pp.Stop()
	}
}

// Localities returns the number of localities.
func (rt *Runtime) Localities() int { return len(rt.locs) }

// Locality returns locality i.
func (rt *Runtime) Locality(i int) *Locality { return rt.locs[i] }

// ParcelportName returns the full Table 1 configuration string.
func (rt *Runtime) ParcelportName() string { return rt.ppCfg.String() }

// Network exposes the fabric (tests and stats).
func (rt *Runtime) Network() *fabric.Network { return rt.net }

// Trace returns the runtime's event tracer (disabled by default; call
// Trace().Enable(true) to record).
func (rt *Runtime) Trace() *trace.Tracer { return rt.tracer }

// MPIComm exposes a locality's MPI communicator for profiling; nil when the
// runtime does not use the MPI transport.
func (rt *Runtime) MPIComm(loc int) *mpisim.Comm {
	if rt.world == nil {
		return nil
	}
	return rt.world.Comm(loc)
}

// LCIDevice exposes a locality's LCI device for profiling; nil when the
// runtime does not use the LCI transport.
func (l *Locality) LCIDevice() *lci.Device { return l.lciDev }

// Barrier synchronizes all localities: locality 0 calls a no-op on everyone
// and waits. Returns false on timeout.
func (rt *Runtime) Barrier(timeout time.Duration) bool {
	loc0 := rt.locs[0]
	barrierID, _ := rt.ActionID(barrierActionName)
	futs := make([]*amt.Future[[][]byte], 0, len(rt.locs)-1)
	for i := 1; i < len(rt.locs); i++ {
		futs = append(futs, loc0.CallID(i, barrierID, nil))
	}
	deadline := time.Now().Add(timeout)
	for _, f := range futs {
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		if _, err := f.GetTimeout(remain); err != nil {
			return false
		}
	}
	return true
}

// barrierActionName is the reserved no-op action used by Barrier.
const barrierActionName = "__barrier"

// runContinuation is the reserved action that fulfils Call futures:
// args[0] = 8-byte continuation id, args[1:] = results.
func (rt *Runtime) runContinuation(loc *Locality, args [][]byte) [][]byte {
	if len(args) == 0 || len(args[0]) != 8 {
		return nil
	}
	id := binary.LittleEndian.Uint64(args[0])
	loc.contMu.Lock()
	e, ok := loc.conts[id]
	delete(loc.conts, id)
	loc.contMu.Unlock()
	if ok {
		e.f.Set(args[1:], nil)
	}
	return nil
}

// contEntry is one Call awaiting its remote result.
type contEntry struct {
	f          *amt.Future[[][]byte]
	dst        int
	deadlineNs int64 // unix nanos; 0 = no deadline
}

// Locality is one simulated compute node: scheduler, parcelport, parcel
// layer and continuation table.
type Locality struct {
	rt     *Runtime
	id     int
	sched  *amt.Scheduler
	pp     parcelport.Parcelport
	layer  *parcel.Layer
	lciDev *lci.Device // LCI transport only (stats)

	contMu   sync.Mutex
	conts    map[uint64]contEntry
	nextCont atomic.Uint64

	// Collective inboxes buffer unsolicited data-plane messages (all-to-all
	// blocks, allreduce round partials) that may arrive before this node has
	// entered the collective. See collectives.go.
	collMu      sync.Mutex
	collBoxes   map[uint64]*collBox
	collSweepNs atomic.Int64

	nextReapNs      atomic.Int64 // rate-gates the continuation reaper
	parcelsExecuted atomic.Uint64
	decodeErrors    atomic.Uint64
	inlineExecuted  atomic.Uint64 // parcels run on the inline lane
	inlineSpilled   atomic.Uint64 // inline-eligible parcels demoted to spawn

	// delivPool recycles delivery contexts (parcel slab + task slots) so the
	// steady-state receive path allocates nothing. See deliver.
	delivPool sync.Pool
}

// ID returns the locality id (the MPI-rank analogue).
func (l *Locality) ID() int { return l.id }

// Scheduler exposes the locality's task scheduler.
func (l *Locality) Scheduler() *amt.Scheduler { return l.sched }

// ParcelLayer exposes the parcel layer (stats).
func (l *Locality) ParcelLayer() *parcel.Layer { return l.layer }

// ParcelsExecuted counts action invocations that arrived via parcels.
func (l *Locality) ParcelsExecuted() uint64 { return l.parcelsExecuted.Load() }

// DecodeErrors counts received messages dropped because they failed to
// decode (protocol corruption).
func (l *Locality) DecodeErrors() uint64 { return l.decodeErrors.Load() }

// InlineExecuted counts parcels run to completion on the draining goroutine
// (the inline lane of deliver).
func (l *Locality) InlineExecuted() uint64 { return l.inlineExecuted.Load() }

// InlineSpilled counts inline-eligible parcels that were demoted to spawned
// tasks because the per-message time cap expired mid-drain.
func (l *Locality) InlineSpilled() uint64 { return l.inlineSpilled.Load() }

// PendingContinuations reports Call futures still awaiting their remote
// results. A steadily growing value means calls are timing out (their table
// entries are reclaimed only when the response eventually arrives).
func (l *Locality) PendingContinuations() int {
	l.contMu.Lock()
	defer l.contMu.Unlock()
	return len(l.conts)
}

// Spawn schedules a local task.
func (l *Locality) Spawn(f func()) { l.sched.Spawn(f) }

// Async runs fn as a local task and returns a future for its result.
func Async[T any](l *Locality, fn func() (T, error)) *amt.Future[T] {
	return amt.Async(l.sched, fn)
}

// Apply invokes a registered action on dst, fire-and-forget.
func (l *Locality) Apply(dst int, action string, args ...[]byte) error {
	id, ok := l.rt.ActionID(action)
	if !ok {
		return fmt.Errorf("core: unknown action %q", action)
	}
	return l.ApplyID(dst, id, args)
}

// ApplyID is Apply with a pre-resolved action id (hot paths).
func (l *Locality) ApplyID(dst int, id uint32, args [][]byte) error {
	if dst < 0 || dst >= l.rt.Localities() {
		return fmt.Errorf("core: invalid destination locality %d", dst)
	}
	if dst == l.id {
		// Local invocation short-circuits the network, as in HPX.
		fn := l.rt.action(id)
		if fn == nil {
			return fmt.Errorf("core: unknown action id %d", id)
		}
		l.sched.Spawn(func() {
			fn(l, args)
		})
		return nil
	}
	if l.peerDown(dst) {
		return fmt.Errorf("core: apply to locality %d: %w", dst, ErrPeerUnreachable)
	}
	l.rt.tracer.Emit("parcel", "apply", int64(dst))
	l.layer.PutOne(serialization.Parcel{Source: l.id, Dest: dst, Action: id, Args: args})
	return nil
}

// Call invokes an action on dst and returns a future for its results.
func (l *Locality) Call(dst int, action string, args ...[]byte) *amt.Future[[][]byte] {
	f := amt.NewFuture[[][]byte](l.sched)
	id, ok := l.rt.ActionID(action)
	if !ok {
		f.Set(nil, fmt.Errorf("core: unknown action %q", action))
		return f
	}
	return l.callID(dst, id, args, f)
}

// CallID is Call with a pre-resolved action id.
func (l *Locality) CallID(dst int, id uint32, args [][]byte) *amt.Future[[][]byte] {
	return l.callID(dst, id, args, amt.NewFuture[[][]byte](l.sched))
}

func (l *Locality) callID(dst int, id uint32, args [][]byte, f *amt.Future[[][]byte]) *amt.Future[[][]byte] {
	if dst < 0 || dst >= l.rt.Localities() {
		f.Set(nil, fmt.Errorf("core: invalid destination locality %d", dst))
		return f
	}
	fn := l.rt.action(id)
	if fn == nil {
		f.Set(nil, fmt.Errorf("core: unknown action id %d", id))
		return f
	}
	if dst == l.id {
		l.sched.Spawn(func() {
			f.Set(fn(l, args), nil)
		})
		return f
	}
	if l.peerDown(dst) {
		f.Set(nil, fmt.Errorf("core: call to locality %d: %w", dst, ErrPeerUnreachable))
		return f
	}
	l.rt.tracer.Emit("parcel", "call", int64(dst))
	cid := l.nextCont.Add(1)
	var deadline int64
	if d := l.rt.cfg.DeliveryTimeout; d > 0 {
		deadline = time.Now().Add(d).UnixNano()
	}
	l.contMu.Lock()
	l.conts[cid] = contEntry{f: f, dst: dst, deadlineNs: deadline}
	l.contMu.Unlock()
	l.layer.PutOne(serialization.Parcel{Source: l.id, Dest: dst, Action: id, ContID: cid, Args: args})
	return f
}

// peerDown reports whether the fabric has declared the path to dst dead.
// Always false on the TCP transport (it does not ride the simulated fabric).
func (l *Locality) peerDown(dst int) bool {
	if l.rt.ppCfg.Transport == parcelport.TransportTCP {
		return false
	}
	return l.rt.net.PeerHealth(l.id, dst) == fabric.HealthDown
}

// reapDeadContinuations fails Call futures whose deadline passed or whose
// destination the fabric declared down, and discards parcels queued for dead
// peers. Rate-gated to one pass per millisecond per locality; reports
// whether any future was reaped.
func (l *Locality) reapDeadContinuations() bool {
	now := time.Now().UnixNano()
	next := l.nextReapNs.Load()
	if now < next || !l.nextReapNs.CompareAndSwap(next, now+int64(time.Millisecond)) {
		return false
	}
	downCache := make(map[int]bool)
	isDown := func(dst int) bool {
		v, ok := downCache[dst]
		if !ok {
			v = l.peerDown(dst)
			downCache[dst] = v
		}
		return v
	}
	var victims []contEntry
	l.contMu.Lock()
	for id, e := range l.conts {
		if (e.deadlineNs > 0 && now > e.deadlineNs) || isDown(e.dst) {
			delete(l.conts, id)
			victims = append(victims, e)
		}
	}
	l.contMu.Unlock()
	for dst, down := range downCache {
		if down {
			l.layer.DiscardDest(dst)
		}
	}
	for _, e := range victims {
		l.rt.tracer.Emit("parcel", "reap", int64(e.dst))
		e.f.Set(nil, fmt.Errorf("core: call to locality %d: no response before delivery timeout: %w",
			e.dst, ErrPeerUnreachable))
	}
	return len(victims) > 0
}

// delivery is the pooled receive context of one HPX message: the parcel
// slab the message decodes into, one reusable task slot per parcel (with a
// pre-bound spawn closure, so per-parcel spawning allocates nothing), and
// the message's buffer owner, released when the last task finishes. A
// delivery returns to its locality's pool only at refcount zero, so the
// pooled network buffers the decoded args alias stay valid for exactly as
// long as any task can read them.
type delivery struct {
	l      *Locality
	buf    serialization.DecodeBuf
	owner  serialization.RecvOwner
	refs   atomic.Int32
	tasks  []*parcelTask // pointer-stable reusable slots
	runs   []func()      // scratch batch handed to SpawnBatch
	inline []*parcelTask // scratch batch run on the inline lane
}

// parcelTask is one parcel's reusable spawn slot. run is the method value
// bound to exec, created once per slot and reused for every message.
type parcelTask struct {
	d   *delivery
	p   *serialization.Parcel
	fn  ActionFunc
	run func()
}

// task returns slot i, growing the slot list on first use.
func (d *delivery) task(i int) *parcelTask {
	for len(d.tasks) <= i {
		t := &parcelTask{}
		t.run = t.exec
		d.tasks = append(d.tasks, t)
	}
	return d.tasks[i]
}

// exec runs one parcel's action, then drops the delivery reference.
func (t *parcelTask) exec() {
	d := t.d
	l := d.l
	p := t.p
	fn := t.fn
	t.d, t.p, t.fn = nil, nil, nil
	l.parcelsExecuted.Add(1)
	l.rt.tracer.Emit("action", "run", int64(p.Action))
	if p.Action == continuationAction {
		// runContinuation publishes args[1:] to the Call future, which the
		// caller reads after this task is gone while the parcel slab is
		// recycled: detach the arg headers from the slab, and copy inline
		// bytes out of pooled receive buffers. Args at or above the
		// zero-copy threshold are zero-copy chunks — plain GC buffers,
		// never pooled — and stay aliased.
		p.Args = append(make([][]byte, 0, len(p.Args)), p.Args...)
		if d.owner != nil {
			sanitizeInlineArgs(p.Args, l.rt.cfg.ZeroCopyThreshold)
		}
	}
	results := fn(l, p.Args)
	if p.ContID != 0 {
		var idBuf [8]byte
		binary.LittleEndian.PutUint64(idBuf[:], p.ContID)
		args := append([][]byte{idBuf[:]}, results...)
		if d.owner != nil {
			// The reply parcel may be queued and encoded after this task
			// returns (connection-cache backpressure defers the encode), so
			// results that alias the delivered message — an echo action
			// returning its args — must not point into buffers about to be
			// recycled.
			sanitizeInlineArgs(args[1:], l.rt.cfg.ZeroCopyThreshold)
		}
		_ = l.ApplyID(p.Source, continuationAction, args)
	}
	d.unref()
}

// sanitizeInlineArgs replaces every arg shorter than the zero-copy threshold
// with a garbage-collected copy (one shared backing array). Args at or above
// the threshold are zero-copy chunk buffers, which the receive path never
// pools, so they are safe to alias indefinitely.
func sanitizeInlineArgs(args [][]byte, zcThreshold int) {
	total := 0
	for _, a := range args {
		if len(a) > 0 && len(a) < zcThreshold {
			total += len(a)
		}
	}
	if total == 0 {
		return
	}
	backing := make([]byte, 0, total)
	for i, a := range args {
		if len(a) > 0 && len(a) < zcThreshold {
			backing = append(backing, a...)
			args[i] = backing[len(backing)-len(a) : len(backing) : len(backing)]
		}
	}
}

// unref drops one task reference; the last one releases the message buffers
// and recycles the delivery context.
func (d *delivery) unref() {
	if d.refs.Add(-1) > 0 {
		return
	}
	if d.owner != nil {
		d.owner.Release()
		d.owner = nil
	}
	d.l.delivPool.Put(d)
}

// Deliver feeds a message straight into the locality's receiver datapath,
// exactly as the parcelport's delivery callback would. It exists for the
// datapath benchmark harness (internal/bench), which measures the decode →
// dispatch → spawn → execute path without a wire in between.
func (l *Locality) Deliver(m *serialization.Message) { l.deliver(m) }

// Inline-lane bounds. The count budget comes from Config.InlineBudget;
// the rest cap the other two axes of the drain budget and set the heavy
// escape.
const (
	// DefaultInlineBudget is the inline-lane count budget when
	// Config.InlineBudget is zero: the common bundle size at full
	// aggregation, so one typical bundle of small parcels runs entirely
	// inline and anything beyond it spills to spawned tasks.
	DefaultInlineBudget = 32
	// inlineMaxArgBytes is the per-parcel eligibility cutoff: a parcel
	// whose summed arg bytes exceed it is not "small" and always spawns.
	inlineMaxArgBytes = 1024
	// inlineBytesBudget caps the summed arg bytes run inline per message,
	// so many just-under-cutoff parcels cannot add up to a long stall.
	inlineBytesBudget = 16 * 1024
	// inlineTimeBudget caps the wall time one message's inline batch may
	// occupy the draining goroutine; the remainder demotes to SpawnBatch.
	// Sized so a full default budget of light (<~2µs) actions fits.
	inlineTimeBudget = 100 * time.Microsecond
	// inlineHeavyNs is the per-action service-time EWMA above which an
	// action loses inline eligibility (each inline run stalls the drain by
	// its full service time).
	inlineHeavyNs = 20_000
)

// profilingLabels gates the per-delivery pprof label swap on the inline
// lane. SetGoroutineLabels allocates, so the swap is off by default to keep
// the steady-state receive path at zero allocations; profiling runs flip it
// on to split inline execution from worker polling in CPU profiles.
var profilingLabels atomic.Bool

// EnableProfilingLabels toggles pprof goroutine labels on the inline
// delivery lane ("lane=inline-deliver"). Costs one allocation per delivered
// message while enabled.
func EnableProfilingLabels(on bool) { profilingLabels.Store(on) }

// inlineBudget returns the inline-lane count budget: the configured value,
// DefaultInlineBudget when unset, zero when disabled.
func (l *Locality) inlineBudget() int {
	switch b := l.rt.cfg.InlineBudget; {
	case b < 0:
		return 0
	case b == 0:
		return DefaultInlineBudget
	default:
		return b
	}
}

// deliver is the parcelport's delivery callback: decode the HPX message
// into a pooled parcel slab, run the small inline-hinted parcels to
// completion right here on the draining goroutine, and batch-spawn the
// rest. In steady state the whole path — decode, dispatch, inline-execute
// or spawn, buffer recycle — performs zero allocations (enforced by
// TestDeliverBundleZeroAllocs and TestDeliverInlineBundleZeroAllocs).
//
// The inline lane is the run-to-completion optimization: a small parcel's
// spawn handoff (runner pop, channel send, wakeup) costs more than its
// action body, so eligible parcels skip the scheduler entirely. Eligibility
// per parcel: the action carries the inline hint, its service-time EWMA is
// below the heavy ceiling, the args are small, and the per-message count
// and byte budgets have room. The spill batch spawns *first*, so heavy
// work overlaps the inline runs instead of queueing behind them.
func (l *Locality) deliver(m *serialization.Message) {
	d, _ := l.delivPool.Get().(*delivery)
	if d == nil {
		d = &delivery{l: l}
	}
	parcels, err := serialization.DecodeInto(&d.buf, m)
	if err != nil {
		// Corrupted message: count it, drop it, and still release its pooled
		// buffers so they return to their pools instead of leaking.
		l.decodeErrors.Add(1)
		l.rt.tracer.Emit("parcel", "decode-error", int64(l.id))
		if m.Owner != nil {
			m.Owner.Release()
		}
		l.delivPool.Put(d)
		return
	}
	l.rt.tracer.Emit("parcel", "deliver", int64(len(parcels)))
	d.owner = m.Owner
	runs := d.runs[:0]
	inl := d.inline[:0]
	var hints []bool
	budget := 0
	if tab := l.rt.inlineTab.Load(); tab != nil && len(parcels) > 0 {
		if budget = l.inlineBudget(); budget > 0 {
			hints = *tab
		}
	}
	inlBytes := 0
	n := 0
	for i := range parcels {
		p := &parcels[i]
		fn := l.rt.action(p.Action)
		if fn == nil {
			continue
		}
		t := d.task(n)
		t.d, t.p, t.fn = d, p, fn
		n++
		if len(inl) < budget && int(p.Action) < len(hints) && hints[p.Action] &&
			l.rt.actionSvc[p.Action].Load() < inlineHeavyNs {
			ab := 0
			for _, a := range p.Args {
				ab += len(a)
			}
			if ab <= inlineMaxArgBytes && inlBytes+ab <= inlineBytesBudget {
				inlBytes += ab
				inl = append(inl, t)
				continue
			}
		}
		runs = append(runs, t.run)
	}
	d.runs, d.inline = runs, inl
	if n == 0 {
		if d.owner != nil {
			d.owner.Release()
			d.owner = nil
		}
		l.delivPool.Put(d)
		return
	}
	// One extra reference guards d for the duration of the inline loop:
	// without it the last inline task would recycle d under our feet while
	// we still iterate d.inline.
	d.refs.Store(int32(n) + 1)
	if len(runs) > 0 {
		l.sched.SpawnBatch(runs)
	}
	if len(inl) > 0 {
		if profilingLabels.Load() {
			pprof.Do(context.Background(), pprof.Labels("lane", "inline-deliver"), func(context.Context) {
				l.runInlineBatch(d)
			})
		} else {
			l.runInlineBatch(d)
		}
	}
	d.unref()
}

// runInlineBatch executes d.inline on the calling (draining) goroutine
// under the per-message time cap, demoting the remainder to spawned tasks
// when the cap expires. Each run's service time feeds the per-action EWMA
// (the heavy escape).
func (l *Locality) runInlineBatch(d *delivery) {
	inl := d.inline
	t0 := time.Now()
	deadline := t0.Add(inlineTimeBudget)
	for i, t := range inl {
		if t0.After(deadline) {
			rest := d.runs[:0]
			for _, u := range inl[i:] {
				rest = append(rest, u.run)
			}
			d.runs = rest
			l.sched.SpawnBatch(rest)
			l.inlineSpilled.Add(uint64(len(inl) - i))
			return
		}
		aid := t.p.Action
		l.sched.RunInline(t.run)
		t1 := time.Now()
		svc := t1.Sub(t0).Nanoseconds()
		t0 = t1
		l.inlineExecuted.Add(1)
		if int(aid) < len(l.rt.actionSvc) {
			sv := &l.rt.actionSvc[aid]
			if old := sv.Load(); old == 0 {
				sv.Store(svc)
			} else {
				sv.Store(old + (svc-old)/4)
			}
		}
	}
}
