package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// Span names. Each span's parent is fixed by its name (spanParent), and
// spans of one request share its request ID, so the recorder stores only
// (name, request, start, end) on the hot path and links parents at export.
const (
	spSetup = iota
	spNewRuntime
	spServeNew
	spPreload
	spStart
	spApply   // core.Locality.ApplyID, one-way stream send
	spSink    // stream sink start..end on the receiving locality
	spRPC     // one echo round trip: CallID issue .. Then callback start
	spCallID  // core.Locality.CallID
	spEcho    // echo action on the remote locality
	spThen    // Future.Then callback on the calling locality
	spRequest // one KV request: scheduled arrival .. completion
	spSpawn   // core.Locality.Spawn .. the spawned task starts
	spGet     // serve.Client.Get
	spPut     // serve.Client.Put
	spProbe   // spawn-lane probe: Locality.Spawn .. task start
	numSpans
)

var spanName = [numSpans]string{
	"setup", "core.NewRuntime", "serve.New", "serve.Preload", "core.Start",
	"core.ApplyID", "sink", "rpc", "core.CallID", "echo", "then",
	"kv.request", "amt.spawn_wait", "serve.Get", "serve.Put", "amt.spawn_probe",
}

// spanParent gives each span name's parent name (-1: a root).
var spanParent = [numSpans]int{
	-1, spSetup, spSetup, spSetup, spSetup,
	-1, spApply, -1, spRPC, spRPC, spRPC,
	-1, spRequest, spRequest, spRequest, -1,
}

type span struct {
	name       uint8
	req        uint64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in a preallocated in-memory buffer and writes them
// out at exit. A nil *tracer records nothing, so untraced runs pay one
// nil check per call site.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, capacity)}
}

// record stores one span; start and end are ns since the epoch.
func (t *tracer) record(name int, req uint64, start, end int64) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{name: uint8(name), req: req, start: start, end: end}
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// durations returns the durations (µs) of the spans named name.
func durations(spans []span, name int) []float64 {
	var out []float64
	for _, s := range spans {
		if int(s.name) == name {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// gaps returns, per request that has both, child.start - parent.end (µs):
// the time from the end of one call to the start of the work it caused.
func gaps(spans []span, parent, child int) []float64 {
	ends := make(map[uint64]int64)
	for _, s := range spans {
		if int(s.name) == parent {
			ends[s.req] = s.end
		}
	}
	var out []float64
	for _, s := range spans {
		if int(s.name) == child {
			if e, ok := ends[s.req]; ok {
				out = append(out, float64(s.start-e)/1e3)
			}
		}
	}
	return out
}

type spanRecord struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Req     uint64 `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// writeTrace writes the spans as JSON lines, each linked to its parent
// span (same request, parent name), followed by one line per extra record
// (counter snapshots and the like).
func writeTrace(path string, spans []span, extra ...any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type key struct {
		name int
		req  uint64
	}
	ids := make(map[key]int, len(spans))
	for i, s := range spans {
		ids[key{int(s.name), s.req}] = i
	}
	for i, s := range spans {
		parent := -1
		if p := spanParent[s.name]; p >= 0 {
			if id, ok := ids[key{p, s.req}]; ok {
				parent = id
			}
		}
		if err := enc.Encode(spanRecord{i, spanName[s.name], s.req, s.start, s.end, parent}); err != nil {
			f.Close()
			return err
		}
	}
	for _, x := range extra {
		if err := enc.Encode(x); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
