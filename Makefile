# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet fmt-check test race check alloc-gate bench bench-quick bench-fabric bench-deliver bench-collectives bench-msgrate bench-rendezvous bench-latency bench-serve bench-inline bench-gate perfbench-test fuzz examples experiments clean

all: build vet test

# The full gate: build, vet, formatting, tests, the race detector over the
# concurrency-heavy packages (communication libraries, fabric ARQ,
# parcelports, serving tier), the collectives perf snapshot, the serving-tier
# SLO snapshot, the message-rate/rendezvous/latency/serve regression gate,
# and the repository benchmark's own unit tests.
check: build vet fmt-check test race alloc-gate bench-collectives bench-serve bench-gate perfbench-test

# The receiver-datapath allocation gate: delivering a warm eager-sized bundle
# must not allocate, spawned or inline (see DESIGN.md §9 and §14). Run with
# -count=1 so a cached pass never masks a regression.
alloc-gate:
	$(GO) test ./internal/core/ -run 'TestDeliverBundleZeroAllocs|TestDeliverInlineBundleZeroAllocs|TestCollBoxFastPathZeroAlloc' -count=1
	$(GO) test ./internal/serialization/ -run TestDecodeIntoSteadyStateAllocs -count=1
	$(GO) test ./internal/lci/ -run TestChunkedZeroAllocSteadyState -count=1
	$(GO) test ./internal/serve/ -run 'TestServeCachedGetZeroAllocs|TestTokenBucketZeroAllocs' -count=1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./... -timeout 900s

race:
	$(GO) test -race ./internal/lci/... ./internal/mpisim/... ./internal/fabric/... ./internal/parcelport/... ./internal/amt/... ./internal/core/... ./internal/serve/... -timeout 1800s

bench:
	$(GO) test -bench=. -benchmem ./... -timeout 3600s

# Fabric datapath microbenchmarks: per-packet inject/poll cost, allocation
# counts, and the poll-cost-vs-cluster-size scaling the ready index flattens
# (results/fabric-datapath.txt has the prose before/after; BENCH_fabric.json
# is the machine-readable artifact, claims-checked on regeneration).
bench-fabric:
	$(GO) test -bench 'BenchmarkInjectPoll|BenchmarkPoll' -benchmem ./internal/fabric/ -timeout 1800s
	$(GO) run ./cmd/experiments -scale quick -out results fabric-bench

# Flat-vs-tree collectives latency sweep, emitting the machine-readable
# BENCH_collectives.json (op, impl, nodes, ns/op, allocs/op, commit) next to
# the text figure — the perf-trajectory artifact tracked across PRs. Quick
# scale here keeps `make check` fast; run with -scale full to regenerate the
# recorded results/ numbers (256 localities).
bench-collectives:
	$(GO) run ./cmd/experiments -scale quick -out results collectives

# Receiver datapath microbenchmarks: bundled-message delivery (decode +
# dispatch + spawn + execute) and batched task spawn
# (results/receiver-datapath.txt has the prose before/after;
# BENCH_deliver.json is the machine-readable artifact, claims-checked on
# regeneration).
bench-deliver:
	$(GO) test -bench BenchmarkDeliverBundle -benchmem ./internal/core/ -timeout 1800s
	$(GO) test -bench BenchmarkSpawnBatch -benchmem ./internal/amt/ -timeout 1800s
	$(GO) run ./cmd/experiments -scale quick -out results deliver-bench

# Regenerate the committed message-rate regression baseline
# (results/BENCH_msgrate.json). Pinned to quick scale — the same scale
# bench-gate runs at — so the committed rows stay comparable.
bench-msgrate:
	$(GO) run ./cmd/experiments -scale quick -out results msgrate-bench

# Regenerate the committed large-message rendezvous bandwidth baseline
# (results/BENCH_rendezvous.json): chunked multi-rail striping vs the
# monolithic single-blob path. Pinned to quick scale — the same scale
# bench-gate runs at — so the committed rows stay comparable.
bench-rendezvous:
	$(GO) run ./cmd/experiments -scale quick -out results rendezvous-bench

# Regenerate the committed small/medium latency snapshot
# (results/BENCH_latency.json): one-way 8 B and 16 KiB latency at 1 and 8
# workers. Gated by bench-gate with noise-band-derived factors (2x mean/p50,
# 3x p99 — see EXPERIMENTS.md); pinned to quick scale, the same scale
# bench-gate runs at.
bench-latency:
	$(GO) run ./cmd/experiments -scale quick -out results latency-bench

# Regenerate the committed serving-tier SLO baseline
# (results/BENCH_serve.json): KV throughput and tail latency with the
# hot-key cache, single-flight coalescing, and admission control toggled
# per row. Claims-checked on every run (cache >= 2x cache-off on the Zipf
# mix; admission bounds the overload tail). Pinned to quick scale — the
# same scale bench-gate runs at.
bench-serve:
	$(GO) run ./cmd/experiments -scale quick -out results serve

# Regenerate the committed inline-lane baseline (results/BENCH_inline.json):
# 64 B aggregated message rate with run-to-completion delivery on vs forced
# spawn-always, plus the serving-tier Zipf capacity with the lane on.
# Claims-checked on every run (inline >= 1.3x spawn-always; serve capacity
# comparable to the committed serving-tier row). Pinned to quick scale — the
# same scale bench-gate runs at.
bench-inline:
	$(GO) run ./cmd/experiments -scale quick -out results inline

# Re-measure the gated rows (message rate, rendezvous, latency, serve) and
# compare against the committed baselines; fails on step regressions and on
# broken structural claims.
bench-gate:
	$(GO) run ./cmd/experiments -scale quick bench-gate

# Unit tests of the repository benchmark (perfbench/, a nested module that
# `./...` does not reach): percentiles, histograms, windows, counter deltas,
# the correctness checkers and BENCHMARK.json agreement. Offline, ~1 s.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Quick A/B of the 64 B message-rate benchmark with the sender-side
# aggregation layer off and on.
bench-quick:
	$(GO) run ./cmd/msgrate -config lci -size 64 -total 20000
	$(GO) run ./cmd/msgrate -config lci -size 64 -total 20000 -agg

fuzz:
	$(GO) test ./internal/serialization/ -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/serialization/ -fuzz FuzzParseTransmissionSizes -fuzztime 15s
	$(GO) test ./internal/parcelport/ -fuzz FuzzDecodeHeader -fuzztime 15s

examples:
	$(GO) test . -run TestExamplesRun -v

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -out results all

clean:
	$(GO) clean ./...
