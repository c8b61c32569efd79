package main

import (
	"strings"
	"testing"

	"hpxgo/internal/fabric"
	"hpxgo/internal/lci"
)

func TestCounterDeltas(t *testing.T) {
	var a, b counters
	addUints(&a.LCI, lci.Stats{MediumSent: 5, ProgressCalls: 100})
	addUints(&a.LCI, lci.Stats{MediumSent: 2, ProgressCalls: 1})
	if a.LCI.MediumSent != 7 || a.LCI.ProgressCalls != 101 {
		t.Fatalf("sum = %+v", a.LCI)
	}
	b = a
	addUints(&b.Fabric, fabric.Stats{InjectedPackets: 40, Backpressured: 2})
	b.LCI.MediumSent += 3
	b.TasksExecuted = 9
	b.Service.Keys = 10
	a.Service.Keys = 12
	d := b.sub(a)
	if d.LCI.MediumSent != 3 || d.LCI.ProgressCalls != 0 || d.Fabric.InjectedPackets != 40 || d.TasksExecuted != 9 {
		t.Fatalf("delta = %+v", d)
	}
	if d.Service.Keys != -2 {
		t.Fatalf("signed gauge delta = %d, want -2", d.Service.Keys)
	}
	if a.LCI.MediumSent != 7 {
		t.Fatal("sub modified its receiver's base")
	}
}

func TestPerLayerRatiosCarryTheirBase(t *testing.T) {
	ph := &phase{ops: 1000, payloadBytes: 64000, rate: 900}
	ph.c1.InlineExecuted, ph.c1.ParcelsExecuted = 300, 1200
	ph.c1.Fabric.InjectedPackets, ph.c1.Fabric.InjectedBytes = 250, 80000
	ph.c1.Fabric.Backpressured = 5
	ph.c1.Parcel.ParcelsSent = 1000
	ph.c1.LCI.ProgressCalls, ph.c1.LCI.PutsRecvd = 5000, 250
	// Every shard shed is also a client shed (with backpressure rejections
	// on top): the client count alone is the shed total.
	ph.c1.Client.Shed, ph.c1.Service.Shed = 30, 20
	ref := &phase{rate: 1000}
	got := map[string]metric{}
	for _, m := range perLayer(ph, ref, nil, map[string]float64{"progress": 0.4}) {
		got[m.Name] = m
	}
	check := func(name string, v float64, base string) {
		t.Helper()
		m, ok := got[name]
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if m.Value != v || (base != "" && m.Base != base) {
			t.Errorf("%s = %v (%s), want %v (%s)", name, m.Value, m.Base, v, base)
		}
	}
	check("core.inline_frac", 0.25, "300/1200")
	check("parcelport.parcels_per_pkt", 4, "1000/250")
	check("fabric.pkts_per_op", 0.25, "250/1000")
	check("fabric.wire_bytes_per_payload_byte", 1.25, "80000/64000")
	check("fabric.backpressured_per_kpkt", 20, "5000/250")
	check("lci.progress_per_msg", 20, "5000/250")
	check("serve.hit_rate", 0, "0/0") // layer bypassed: empty base reads 0
	check("serve.shed_frac", 0.03, "30/1000")
	check("lane.progress_cpu_frac", 0.4, "")
	check("trace.overhead_frac", 0.1, "100/1000")
	for name, m := range got {
		if m.Unit == "" || strings.TrimSpace(m.Base) == "" {
			t.Errorf("%s lacks a unit or base", name)
		}
	}
}
