package parcelport

import (
	"sync"
	"testing"
	"time"

	"hpxgo/internal/serialization"
	"hpxgo/internal/wire"
)

// fakePP records sends and loops them back to its deliver callback on
// demand; the minimal inner Parcelport for aggregation tests.
type fakePP struct {
	mu      sync.Mutex
	sent    []fakeSend
	deliver DeliverFunc
	bg      int
}

type fakeSend struct {
	dst int
	m   *serialization.Message
}

func (f *fakePP) Name() string              { return "fake" }
func (f *fakePP) Start(d DeliverFunc) error { f.deliver = d; return nil }
func (f *fakePP) Stop()                     {}
func (f *fakePP) BackgroundWork(int) bool   { f.mu.Lock(); f.bg++; f.mu.Unlock(); return false }
func (f *fakePP) Send(dst int, m *serialization.Message) {
	f.mu.Lock()
	f.sent = append(f.sent, fakeSend{dst: dst, m: m})
	f.mu.Unlock()
	m.Done()
}

func (f *fakePP) sends() []fakeSend {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]fakeSend(nil), f.sent...)
}

// loopback replays every recorded send into the deliver callback, as if the
// wire echoed it to the peer.
func (f *fakePP) loopback() {
	for _, s := range f.sends() {
		f.deliver(&serialization.Message{
			NonZeroCopy:  s.m.NonZeroCopy,
			Transmission: s.m.Transmission,
			ZeroCopy:     s.m.ZeroCopy,
		})
	}
}

// warmAgg returns an aggregator whose destinations never read as cold, so
// tests exercise the buffering path deterministically.
func warmAgg(inner Parcelport, dests int, cfg AggConfig) *Aggregator {
	if cfg.ColdIdle == 0 {
		cfg.ColdIdle = time.Hour
	}
	if cfg.FlushDelay == 0 {
		cfg.FlushDelay = time.Hour
	}
	return NewAggregator(inner, dests, cfg)
}

func msgOf(payload []byte) *serialization.Message {
	return &serialization.Message{NonZeroCopy: append([]byte(nil), payload...)}
}

func TestAggregatorBundlesSmallMessages(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 2, AggConfig{FlushBytes: 1 << 20})
	var delivered [][]byte
	if err := a.Start(func(m *serialization.Message) {
		delivered = append(delivered, append([]byte(nil), m.NonZeroCopy...))
	}); err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 5; i++ {
		m := msgOf([]byte{byte(i), 0xee})
		m.OnSent = func() { done++ }
		a.Send(1, m)
	}
	if done != 5 {
		t.Fatalf("Done fired for %d/5 sub-messages at copy time", done)
	}
	if got := len(inner.sent); got != 0 {
		t.Fatalf("%d sends reached the inner parcelport before any flush", got)
	}
	if q := a.QueuedSubMessages(1); q != 5 {
		t.Fatalf("QueuedSubMessages = %d, want 5", q)
	}
	a.flushDest(1, &a.stats.ageFl)
	sends := inner.sends()
	if len(sends) != 1 {
		t.Fatalf("flush produced %d transfers, want 1 bundle", len(sends))
	}
	if !wire.IsBundle(sends[0].m.NonZeroCopy) {
		t.Fatal("flushed transfer is not a bundle")
	}
	inner.loopback()
	if len(delivered) != 5 {
		t.Fatalf("unbundled %d sub-messages, want 5", len(delivered))
	}
	for i, d := range delivered {
		if len(d) != 2 || d[0] != byte(i) {
			t.Fatalf("sub-message %d = %v", i, d)
		}
	}
	st := a.Stats()
	if st.BundledMessages != 5 || st.Bundles != 1 || st.Unbundled != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAggregatorSizeFlush(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 1, AggConfig{FlushBytes: 64, MaxSub: 32})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 20)
	for i := 0; i < 10; i++ {
		a.Send(0, msgOf(payload))
	}
	if len(inner.sends()) == 0 {
		t.Fatal("size threshold never flushed")
	}
	if a.Stats().SizeFlushes == 0 {
		t.Fatal("SizeFlushes counter never bumped")
	}
	for _, s := range inner.sends() {
		if len(s.m.NonZeroCopy) < 64 {
			t.Fatalf("size-flushed bundle only %dB", len(s.m.NonZeroCopy))
		}
	}
}

func TestAggregatorAgeFlushViaBackgroundWork(t *testing.T) {
	inner := &fakePP{}
	a := NewAggregator(inner, 1, AggConfig{
		FlushBytes: 1 << 20,
		FlushDelay: time.Nanosecond,
		ColdIdle:   time.Hour,
	})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	a.Send(0, msgOf([]byte("lonely")))
	if len(inner.sends()) != 0 {
		t.Fatal("message flushed before its age deadline")
	}
	time.Sleep(time.Millisecond)
	if !a.BackgroundWork(0) {
		t.Fatal("BackgroundWork reported no work despite a stale buffer")
	}
	if len(inner.sends()) != 1 {
		t.Fatalf("age flush produced %d transfers", len(inner.sends()))
	}
	if a.Stats().AgeFlushes == 0 {
		t.Fatal("AgeFlushes counter never bumped")
	}
	if inner.bg == 0 {
		t.Fatal("inner BackgroundWork not chained")
	}
}

func TestAggregatorCapBackpressure(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 1, AggConfig{FlushBytes: 1 << 20, MaxQueued: 3})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		a.Send(0, msgOf([]byte{byte(i)}))
	}
	if got := a.Stats().CapFlushes; got != 2 {
		t.Fatalf("CapFlushes = %d, want 2 (7 sends, cap 3)", got)
	}
	if got := len(inner.sends()); got != 2 {
		t.Fatalf("%d transfers, want 2 capped bundles", got)
	}
	if q := a.QueuedSubMessages(0); q != 1 {
		t.Fatalf("%d sub-messages left buffered, want 1", q)
	}
}

func TestAggregatorColdPassthrough(t *testing.T) {
	inner := &fakePP{}
	a := NewAggregator(inner, 1, AggConfig{
		FlushBytes: 1 << 20,
		FlushDelay: time.Hour,
		ColdIdle:   time.Nanosecond,
	})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	a.Send(0, msgOf([]byte("cold")))
	sends := inner.sends()
	if len(sends) != 1 || wire.IsBundle(sends[0].m.NonZeroCopy) {
		t.Fatalf("cold send not passed straight through: %d sends", len(sends))
	}
	st := a.Stats()
	if st.ColdSends != 1 || st.DirectSends != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// sparseColdIdle is the ColdIdle of the sparse-peer tests. The tests move
// the aggregator's clock by whole fractions of it, so the real time the
// test itself takes (microseconds to milliseconds) cannot cross a
// threshold.
const sparseColdIdle = 10 * time.Second

// sparseSenders are the two ways a bundleable message enters the
// aggregator: Send with an encoded message, and SendParcel with Send as the
// fallback, the way the parcel layer drives it.
var sparseSenders = []struct {
	name string
	send func(a *Aggregator)
}{
	{"Send", func(a *Aggregator) { a.Send(0, msgOf([]byte("sparse"))) }},
	{"SendParcel", func(a *Aggregator) {
		p := serialization.Parcel{Dest: 0, Action: 1, Args: [][]byte{[]byte("sparse")}}
		if !a.SendParcel(0, p) {
			m := serialization.EncodeOne(&p, 0)
			m.RecycleOnSent = true
			a.Send(0, m)
		}
	}},
}

// sparseAgg returns a started aggregator for the sparse-peer tests; nothing
// flushes by size or age on its own.
func sparseAgg(t *testing.T) *Aggregator {
	t.Helper()
	a := NewAggregator(&fakePP{}, 1, AggConfig{
		FlushBytes: 1 << 20, FlushDelay: time.Hour, ColdIdle: sparseColdIdle,
	})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	return a
}

// sendAfter moves the aggregator's clock on by gap (a fraction of
// sparseColdIdle), sends one message, flushes whatever it buffered and
// reports whether the message went direct. The flush keeps the buffer empty
// between sends, so every send meets the direct-send decision.
func sendAfter(a *Aggregator, send func(*Aggregator), gap float64) bool {
	a.start = a.start.Add(-time.Duration(gap * float64(sparseColdIdle)))
	before := a.Stats().DirectSends
	send(a)
	a.flushDest(0, &a.stats.ageFl)
	return a.Stats().DirectSends > before
}

// TestAggregatorSparsePeerGoesDirect: a stream whose mean gap lies between
// ColdIdle and 2×ColdIdle, after gaps long enough to mark the peer sparse,
// keeps sending direct, including the messages that follow their
// predecessor within ColdIdle/2 (the cold check alone buffers those).
func TestAggregatorSparsePeerGoesDirect(t *testing.T) {
	for _, s := range sparseSenders {
		t.Run(s.name, func(t *testing.T) {
			a := sparseAgg(t)
			gaps := []float64{3, 3}
			for i := 0; i < 8; i++ {
				gaps = append(gaps, 1.5, 1.5, 0.4)
			}
			sum := 0.0
			for _, g := range gaps {
				sum += g
			}
			if mean := sum / float64(len(gaps)); mean <= 1 || mean >= 2 {
				t.Fatalf("mean gap %.2f×ColdIdle, want within (1, 2)", mean)
			}
			for i, g := range gaps {
				if !sendAfter(a, s.send, g) {
					t.Fatalf("send %d (gap %.1f×ColdIdle) was bundled on a sparse peer", i, g)
				}
			}
			if st := a.Stats(); st.BundledMessages != 0 || st.ColdSends != uint64(len(gaps)) {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// TestAggregatorHotPeerStaysBundled: gaps far below ColdIdle (with the odd
// one just under it) never mark a peer sparse; only the first message, cold
// after the idle start, goes direct.
func TestAggregatorHotPeerStaysBundled(t *testing.T) {
	for _, s := range sparseSenders {
		t.Run(s.name, func(t *testing.T) {
			a := sparseAgg(t)
			if !sendAfter(a, s.send, 3) {
				t.Fatal("first message after an idle start was not sent cold")
			}
			for i := 0; i < 40; i++ {
				gap := 0.01
				if i%10 == 9 {
					gap = 0.9
				}
				if sendAfter(a, s.send, gap) {
					t.Fatalf("hot send %d (gap %.2f×ColdIdle) went direct", i, gap)
				}
			}
			if st := a.Stats(); st.BundledMessages != 40 || st.ColdSends != 1 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// TestAggregatorSparsePeerTurnsHot: a sparse peer that turns hot keeps
// sending direct while the EWMA decays through the hysteresis band, then
// bundles again. The long idle spell before the hot phase counts as at most
// 4×ColdIdle, so the switch back takes a handful of sends, not dozens.
func TestAggregatorSparsePeerTurnsHot(t *testing.T) {
	for _, s := range sparseSenders {
		t.Run(s.name, func(t *testing.T) {
			a := sparseAgg(t)
			for i := 0; i < 4; i++ {
				sendAfter(a, s.send, 3)
			}
			if !sendAfter(a, s.send, 100) {
				t.Fatal("send after a long idle spell was not direct")
			}
			if !sendAfter(a, s.send, 0.01) {
				t.Fatal("first hot send was bundled: no hysteresis")
			}
			for i := 0; i < 8; i++ {
				sendAfter(a, s.send, 0.01)
			}
			for i := 0; i < 20; i++ {
				if sendAfter(a, s.send, 0.01) {
					t.Fatalf("hot send %d still direct after the peer turned hot", i)
				}
			}
		})
	}
}

func TestAggregatorLargeMessageFlushesFirst(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 1, AggConfig{FlushBytes: 1 << 20, MaxSub: 16})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	a.Send(0, msgOf([]byte("small")))
	big := msgOf(make([]byte, 64)) // over MaxSub
	a.Send(0, big)
	sends := inner.sends()
	if len(sends) != 2 {
		t.Fatalf("%d transfers, want buffered bundle then passthrough", len(sends))
	}
	if !wire.IsBundle(sends[0].m.NonZeroCopy) {
		t.Fatal("buffered bundle did not flush ahead of the big message")
	}
	if wire.IsBundle(sends[1].m.NonZeroCopy) || len(sends[1].m.NonZeroCopy) != 64 {
		t.Fatal("big message did not pass through untouched")
	}
	if a.Stats().OrderFlushes != 1 {
		t.Fatalf("OrderFlushes = %d, want 1", a.Stats().OrderFlushes)
	}
	// Zero-copy messages must also bypass bundling.
	zc := &serialization.Message{
		NonZeroCopy: []byte("hdr"),
		ZeroCopy:    [][]byte{make([]byte, 8)},
	}
	a.Send(0, zc)
	if s := inner.sends(); len(s[len(s)-1].m.ZeroCopy) != 1 {
		t.Fatal("zero-copy message mangled by the aggregator")
	}
}

func TestAggregatorStopFlushes(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 3, AggConfig{FlushBytes: 1 << 20})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	a.Send(0, msgOf([]byte("a")))
	a.Send(2, msgOf([]byte("b")))
	a.Stop()
	if got := len(inner.sends()); got != 2 {
		t.Fatalf("Stop flushed %d buffers, want 2", got)
	}
	// Shutdown drains must credit the dedicated StopFlushes counter, not
	// AgeFlushes: these buffers never reached their FlushDelay.
	st := a.Stats()
	if st.StopFlushes != 2 {
		t.Fatalf("StopFlushes = %d, want 2", st.StopFlushes)
	}
	if st.AgeFlushes != 0 {
		t.Fatalf("AgeFlushes = %d, want 0 (shutdown drains polluted the age counter)", st.AgeFlushes)
	}
}

func TestAggregatorName(t *testing.T) {
	a := NewAggregator(&fakePP{}, 1, AggConfig{})
	if a.Name() != "fake_agg" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.Inner().Name() != "fake" {
		t.Fatalf("Inner().Name = %q", a.Inner().Name())
	}
}

// TestAggregatorSendParcelDirectEncode covers the scratch-free fast path:
// parcels encoded straight into the bundle buffer must interleave with
// pre-encoded Send messages in the same bundle and decode identically on
// the receive side.
func TestAggregatorSendParcelDirectEncode(t *testing.T) {
	inner := &fakePP{}
	a := warmAgg(inner, 2, AggConfig{FlushBytes: 1 << 20})
	var delivered []*serialization.Parcel
	if err := a.Start(func(m *serialization.Message) {
		ps, err := serialization.Decode(m)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		delivered = append(delivered, ps...)
	}); err != nil {
		t.Fatal(err)
	}

	if !a.SendParcel(1, serialization.Parcel{
		Source: 0, Dest: 1, Action: 7, Args: [][]byte{[]byte("alpha")},
	}) {
		t.Fatal("SendParcel rejected a small parcel for a warm destination")
	}
	// A pre-encoded message rides the same bundle.
	em := serialization.EncodeOne(&serialization.Parcel{
		Source: 0, Dest: 1, Action: 8, Args: [][]byte{[]byte("beta")},
	}, 0)
	em.RecycleOnSent = true
	a.Send(1, em)
	if !a.SendParcel(1, serialization.Parcel{
		Source: 0, Dest: 1, Action: 9, ContID: 42, Args: [][]byte{nil, []byte("gamma")},
	}) {
		t.Fatal("SendParcel rejected the third parcel")
	}

	if q := a.QueuedSubMessages(1); q != 3 {
		t.Fatalf("QueuedSubMessages = %d, want 3", q)
	}
	a.flushDest(1, &a.stats.ageFl)
	sends := inner.sends()
	if len(sends) != 1 || !wire.IsBundle(sends[0].m.NonZeroCopy) {
		t.Fatalf("flush produced %d transfers (bundle=%v), want 1 bundle",
			len(sends), len(sends) == 1 && wire.IsBundle(sends[0].m.NonZeroCopy))
	}
	inner.loopback()
	if len(delivered) != 3 {
		t.Fatalf("decoded %d parcels, want 3", len(delivered))
	}
	if p := delivered[0]; p.Action != 7 || string(p.Args[0]) != "alpha" {
		t.Fatalf("parcel 0 = %+v", p)
	}
	if p := delivered[1]; p.Action != 8 || string(p.Args[0]) != "beta" {
		t.Fatalf("parcel 1 = %+v", p)
	}
	if p := delivered[2]; p.Action != 9 || p.ContID != 42 ||
		len(p.Args) != 2 || len(p.Args[0]) != 0 || string(p.Args[1]) != "gamma" {
		t.Fatalf("parcel 2 = %+v", p)
	}
	if st := a.Stats(); st.BundledMessages != 3 || st.Bundles != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAggregatorSendParcelFallbacks pins the cases SendParcel must refuse,
// leaving them to the ordinary encode-then-Send path.
func TestAggregatorSendParcelFallbacks(t *testing.T) {
	inner := &fakePP{}
	const coldIdle = 50 * time.Millisecond
	a := NewAggregator(inner, 2, AggConfig{
		FlushBytes: 1 << 20, MaxSub: 64,
		ColdIdle: coldIdle, FlushDelay: time.Hour,
	})
	if err := a.Start(func(*serialization.Message) {}); err != nil {
		t.Fatal(err)
	}
	small := serialization.Parcel{Dest: 1, Action: 1, Args: [][]byte{[]byte("x")}}
	if a.SendParcel(5, small) {
		t.Fatal("SendParcel accepted an out-of-range destination")
	}
	big := serialization.Parcel{Dest: 1, Action: 1, Args: [][]byte{make([]byte, 128)}}
	if a.SendParcel(1, big) {
		t.Fatal("SendParcel accepted a parcel above MaxSub")
	}
	time.Sleep(2 * coldIdle) // let the destination go cold
	if a.SendParcel(1, small) {
		t.Fatal("SendParcel accepted a cold destination")
	}
	// Warm the destination through Send's cold-direct path, then the very
	// next parcel may bundle.
	a.Send(1, msgOf([]byte("warmup")))
	if !a.SendParcel(1, small) {
		t.Fatal("SendParcel rejected a warm destination")
	}
	if st := a.Stats(); st.BundledMessages != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
