package main

import (
	"reflect"
	"runtime"
	"runtime/metrics"

	"hpxgo/internal/core"
	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
	"hpxgo/internal/parcel"
	"hpxgo/internal/serve"
)

// counters is one snapshot of every public counter the benchmark reads,
// summed over all localities. Per-layer metrics are ratios of deltas
// between two snapshots.
type counters struct {
	Parcel parcel.Stats
	LCI    lci.Stats
	Fabric fabric.Stats

	ParcelsExecuted uint64
	InlineExecuted  uint64
	InlineSpilled   uint64
	DecodeErrors    uint64
	TasksExecuted   uint64

	Client  serve.ClientStats
	Service serve.ServiceStats
	Cache   serve.CacheStats

	NumGC   uint64
	Mallocs uint64
}

// snapshotCounters reads the runtime's (and, when svc is non-nil, the
// serving tier's) public counters.
func snapshotCounters(rt *core.Runtime, svc *serve.Service, client int) counters {
	var c counters
	for i := 0; i < rt.Localities(); i++ {
		loc := rt.Locality(i)
		addUints(&c.Parcel, loc.ParcelLayer().Stats())
		if d := loc.LCIDevice(); d != nil {
			addUints(&c.LCI, d.Stats())
		}
		addUints(&c.Fabric, rt.Network().Device(i).Stats())
		c.ParcelsExecuted += loc.ParcelsExecuted()
		c.InlineExecuted += loc.InlineExecuted()
		c.InlineSpilled += loc.InlineSpilled()
		c.DecodeErrors += loc.DecodeErrors()
		c.TasksExecuted += uint64(loc.Scheduler().Executed())
	}
	if svc != nil {
		cl := svc.Client(client)
		c.Client = cl.Stats()
		c.Service = svc.Stats()
		if cache := cl.Cache(); cache != nil {
			c.Cache = cache.Stats()
		}
	}
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	c.NumGC = s[0].Value.Uint64()
	c.Mallocs = s[1].Value.Uint64()
	return c
}

// pending sums the spawned-but-unfinished tasks of every locality.
func pending(rt *core.Runtime) int64 {
	var n int64
	for i := 0; i < rt.Localities(); i++ {
		n += rt.Locality(i).Scheduler().Pending()
	}
	return n
}

// sub returns the field-wise delta c - base. Gauges (ServiceStats.Keys)
// come out as their change, which no metric reads.
func (c counters) sub(base counters) counters {
	d := c
	subUints(&d, base)
	return d
}

// addUints adds every unsigned-integer field of src (a struct) into the
// matching field of *dst, recursing into nested structs.
func addUints[T any](dst *T, src T) { combine(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), 1) }

// subUints subtracts every integer field of src from *dst.
func subUints[T any](dst *T, src T) { combine(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), -1) }

func combine(dst, src reflect.Value, sign int64) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			combine(dst.Field(i), src.Field(i), sign)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if sign > 0 {
			dst.SetUint(dst.Uint() + src.Uint())
		} else {
			dst.SetUint(dst.Uint() - src.Uint())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst.SetInt(dst.Int() + sign*src.Int())
	}
}

// gcPausesSince returns the stop-the-world pause durations (µs) of the GC
// cycles numbered after fromGC, newest last, from the runtime's ring of
// the last 256 pauses.
func gcPausesSince(fromGC uint32) []float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := ms.NumGC - fromGC
	if n > uint32(len(ms.PauseNs)) {
		n = uint32(len(ms.PauseNs))
	}
	out := make([]float64, 0, n)
	for k := ms.NumGC - n + 1; k <= ms.NumGC; k++ {
		out = append(out, float64(ms.PauseNs[(k+255)%256])/1e3)
	}
	return out
}

// heapBytes reads the heap marked live by the most recent GC cycle. Unlike
// the in-use heap, it excludes garbage awaiting collection, so its peak
// does not depend on where a sample falls in the GC cycle.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
