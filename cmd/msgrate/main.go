// Command msgrate runs the §4.1 message-rate microbenchmark once and prints
// the achieved injection and message rates.
//
// Example:
//
//	msgrate -config lci_psr_cq_pin_i -size 8 -batch 100 -total 20000 -rate 400000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"hpxgo/internal/bench"
	"hpxgo/internal/core"
	"hpxgo/internal/fabric"
)

// writeProfile dumps a named runtime profile (mutex, block) to path.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
	}
}

func main() {
	config := flag.String("config", "lci", "parcelport configuration (Table 1 name)")
	size := flag.Int("size", 8, "message size in bytes")
	batch := flag.Int("batch", 100, "messages per task")
	total := flag.Int("total", 20000, "total messages")
	rate := flag.Float64("rate", 0, "attempted injection rate in msgs/s (0 = unlimited)")
	workers := flag.Int("workers", bench.Expanse.WorkersPerLocality, "worker threads per locality")
	stats := flag.Bool("stats", false, "print runtime performance counters after the run")
	reliable := flag.Bool("reliable", false, "enable end-to-end reliable delivery (implied by any fault probability)")
	drop := flag.Float64("drop", 0, "fault injection: per-transmission packet drop probability")
	dup := flag.Float64("dup", 0, "fault injection: packet duplication probability")
	corrupt := flag.Float64("corrupt", 0, "fault injection: packet corruption probability")
	spike := flag.Float64("spike", 0, "fault injection: latency spike probability")
	seed := flag.Int64("faultseed", 1, "fault injection: RNG seed")
	large := flag.Bool("large", false, "run the large-message rendezvous bandwidth benchmark instead of the message-rate loop")
	chunk := flag.Int("chunk", 0, "rendezvous chunk size in bytes (0 = device default 64 KiB; with -large)")
	stripe := flag.Int("stripe", 0, "rendezvous stripe width in rails (0 = all rails; with -large)")
	rails := flag.Int("rails", 4, "fabric rail count (with -large)")
	blob := flag.Bool("blob", false, "use the monolithic single-blob long path (baseline; with -large)")
	agg := flag.Bool("agg", false, "enable the sender-side aggregation layer")
	inline := flag.Bool("inline", true, "run small non-blocking actions inline on the draining goroutine")
	inlinebudget := flag.Int("inlinebudget", 0, "inline-lane per-drain budget (0 = default; ignored with -inline=false)")
	aggsize := flag.Int("aggsize", 0, "aggregation flush size threshold in bytes (0 = default)")
	aggdelay := flag.Duration("aggdelay", 0, "aggregation flush age deadline (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file")
	blockprofile := flag.String("blockprofile", "", "write a blocking profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		// Label the progress / amt-worker / inline-deliver lanes so the
		// profile splits by goroutine role (go tool pprof -tagfocus=lane=...).
		core.EnableProfilingLabels(true)
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexprofile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeProfile("mutex", *mutexprofile)
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeProfile("block", *blockprofile)
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC() // settle live-heap statistics before the dump
			writeProfile("heap", *memprofile)
		}()
	}

	if *large {
		sz := *size
		if sz <= 8 { // the message-rate default is 8 B; pick a rendezvous-sized default
			sz = 1 << 20
		}
		res, err := bench.Rendezvous(bench.RendezvousParams{
			Size: sz, Rails: *rails, ChunkSize: *chunk, Stripe: *stripe, SingleBlob: *blob,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("rendezvous size=%dB rails=%d chunk=%dB stripe=%d blob=%v ns/op=%.0f bandwidth=%.2fGb/s allocs/op=%.2f\n",
			sz, *rails, *chunk, *stripe, *blob, res.NsOp, res.Gbps, res.AllocsOp)
		return
	}

	params := bench.MsgRateParams{
		Size: *size, Batch: *batch, Total: *total, Rate: *rate,
		Workers: *workers, Fabric: bench.Expanse.Fabric(2),
		Agg: *agg, AggSize: *aggsize, AggDelay: *aggdelay,
		InlineOff: !*inline, InlineBudget: *inlinebudget,
	}
	params.Fabric.Reliability = *reliable
	if *drop != 0 || *dup != 0 || *corrupt != 0 || *spike != 0 {
		params.Fabric.Faults = fabric.FaultConfig{
			DropProb: *drop, DupProb: *dup, CorruptProb: *corrupt,
			SpikeProb: *spike, Seed: *seed,
		}
		params.Fabric.RetransmitTimeoutNs = 200_000
		params.Fabric.AckDelayNs = 50_000
		params.Fabric.RetryBudget = 50
	}
	if *stats {
		params.Inspect = func(rt *core.Runtime) { fmt.Print(rt.StatsText()) }
	}
	res, err := bench.MessageRate(*config, params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msgrate: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("config=%s size=%dB attempted=%.0f/s achieved_injection=%.0f/s message_rate=%.0f/s\n",
		*config, *size, res.AttemptedRate, res.AchievedInj, res.MsgRate)
}
