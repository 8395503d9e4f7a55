# Pre-PR gate: build, vet, race-gated tests, tkcheck over every Tcl
# script in the tree (docs/static-analysis.md), the frame-decoder and
# Tcl fuzz smoke, the observability smoke (docs/observability.md), the
# tkbench smoke (cmd/tkbench/README.md), and the chaos harness
# (docs/fault-injection.md). All legs must pass before a change ships.

GO ?= go

.PHONY: check build vet test tkcheck fuzz-smoke bench bench-smoke bench-farm bench-wire tkbench-smoke chaos

check: build vet test tkcheck fuzz-smoke bench-smoke tkbench-smoke chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

tkcheck:
	$(GO) run ./cmd/tkcheck ./examples/... ./cmd/... ./internal/... ./docs
	$(GO) run ./cmd/tkcheck -tests ./cmd/wish

# fuzz-smoke gives the wire-frame decoders (v1 outer framing plus the
# v2 segment/delta codec) and the Tcl interpreter (scripts and
# expressions, cold against cached) a bounded fuzzing pass on every
# check run; longer campaigns just raise -fuzztime. Corpus seeds cover
# v1 and v2 frames in both directions (internal/xproto/fuzz_test.go) and
# the paper's Figures 1-5 and compute-style loops
# (internal/tcl/fuzz_test.go).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadRequestFrame$$' -fuzztime 5s ./internal/xproto
	$(GO) test -run '^$$' -fuzz '^FuzzReadServerFrame$$' -fuzztime 5s ./internal/xproto
	$(GO) test -run '^$$' -fuzz '^FuzzEval$$' -fuzztime 5s ./internal/tcl
	$(GO) test -run '^$$' -fuzz '^FuzzExpr$$' -fuzztime 5s ./internal/tcl

bench: bench-farm
	$(GO) test -bench=. -benchmem
	OBS_BENCH=1 $(GO) test -run 'TestEmitObsBench|TestEmitPipelineBench|TestEmitMTServerBench|TestEmitSLOBench|TestEmitRenderBench|TestEmitWireBench' -count=1 .

# bench-smoke runs the metrics-path, pipelining, multi-client, SLO,
# render, farm and wire-codec end-to-end checks (emitting
# BENCH_obs.json, BENCH_pipeline.json, BENCH_mtserver.json,
# BENCH_slo.json, BENCH_render.json, BENCH_farm.json and
# BENCH_wire.json as side effects): roundtrip p50 must track the
# simulated IPC latency, 8 pipelined round trips must beat 8 serial
# ones ≥ 4× under the per-segment model (and per-request times must
# stay framing-independent), aggregate throughput at 8 concurrent
# clients must be ≥ 3× the single-client baseline, span sampling at
# the default 1-in-64 interval must cost < 10% of pipelined round-trip
# throughput, the tiled renderer must beat the seed flat renderer ≥ 3×
# on the fill/scroll/text storm, painters must keep ≥ half their
# throughput under concurrent screenshot export, the session farm must
# hold 1000 concurrent sessions with bounded memory and survive a 10%
# mid-run eviction with zero cross-tenant damage (docs/farm.md), and
# wire protocol v2 must cut bytes-on-wire ≥ 5× and finish the 10 ms-RTT
# storm ≥ 2× faster than v1 (docs/pipelining.md, "Wire protocol v2").
bench-smoke:
	OBS_BENCH=1 $(GO) test -run 'TestEmitObsBench|TestEmitPipelineBench|TestEmitMTServerBench|TestEmitSLOBench|TestEmitRenderBench|TestEmitFarmBench|TestEmitWireBench' -count=1 .

# bench-farm runs just the display-farm benchmark (BENCH_farm.json):
# 1000+ concurrent wish-style sessions, bounded-memory assertion, p99
# dispatch latency, and the 10%-eviction chaos scenario. See
# docs/farm.md.
bench-farm:
	OBS_BENCH=1 $(GO) test -run TestEmitFarmBench -count=1 -timeout 600s .

# bench-wire runs just the wire-protocol-v2 benchmark (BENCH_wire.json):
# v1-vs-v2 bytes on the wire and storm completion time at 0/1/10 ms
# simulated RTT. See docs/pipelining.md, "Wire protocol v2".
bench-wire:
	OBS_BENCH=1 $(GO) test -run TestEmitWireBench -count=1 -timeout 600s .

# tkbench-smoke runs the benchmark's own tests (about 10 s, offline):
# every workload briefly, race-gated, with its Go-model oracles, so a
# change that breaks compute.tcl's checksum or any other workload's
# output fails the gate. cmd/tkbench is a module of its own, so it is
# not part of ./... above.
tkbench-smoke:
	cd cmd/tkbench && $(GO) test -race -count=1 .

# chaos runs the fault-injection harness (chaos_test.go): a real widget
# workload under a bounded seeded scenario matrix — including corrupted
# and mid-stream-killed wire-protocol-v2 connections — race-gated,
# asserting zero hangs, zero panics, and every injected fault recovered
# from or surfaced as a clean error. See docs/fault-injection.md.
chaos:
	$(GO) test -race -run TestChaos -count=1 -timeout 300s -v .
