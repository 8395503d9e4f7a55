# Pre-PR gate: build, vet, gofmt over every tracked Go file,
# race-gated tests, tkcheck over every Tcl script and Go package in the
# tree (docs/static-analysis.md), the frame-decoder, Tcl,
# option-database, send-record and Tcl-linter fuzz smoke, the
# connection-queue race stress, the performance gates (gates_test.go),
# the tkbench smoke (cmd/tkbench/README.md), and the chaos harness
# (docs/fault-injection.md). All legs must pass before a change ships.

GO ?= go

.PHONY: check build vet fmt test tkcheck fuzz-smoke race-stress bench bench-smoke tkbench-smoke chaos

check: build vet fmt test tkcheck fuzz-smoke race-stress bench-smoke tkbench-smoke chaos

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt -l prints anything for the tracked Go files: a
# file it would reformat, or one it cannot parse.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go') 2>&1); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -race ./...

tkcheck:
	$(GO) run ./cmd/tkcheck ./examples/... ./cmd/... ./internal/... ./docs
	$(GO) run ./cmd/tkcheck -tests ./cmd/wish

# fuzz-smoke gives the wire-frame decoders (the one frame reader per
# direction that the server and client read loops use, which must read
# the same frame into a reused scratch buffer as into a fresh one, plus
# the v2 segment envelope and the v1 frames inside it), the Tcl
# interpreter (scripts and expressions, cold against cached), the
# option database (.Xdefaults text, option stack against the reference
# matcher), the send properties' records (no panic reading any
# property; what the writer wrote reads back field for field), the
# binding table that bind, canvas item and text tag bindings share
# (no panic binding, querying, deleting or
# %-substituting; a rejected sequence changes nothing), the configure
# command every widget shares (no panic; a rejected call changes no
# option; an accepted one reports its value) and the Tcl linter (no
# panic, diagnostics inside the text, a parse diagnostic wherever the
# compiler rejects the text) a bounded fuzzing pass on every check run;
# longer campaigns just raise -fuzztime. Corpus seeds cover v1 and v2
# frames in both directions (internal/xproto/fuzz_test.go), the paper's
# Figures 1-5 and compute-style loops (internal/tcl/fuzz_test.go),
# option patterns of every binding kind (internal/tk/option_test.go),
# send records whose fields hold newlines, braces and NUL bytes, an
# empty property, a partial record and an unbalanced brace
# (internal/tk/send_test.go),
# Figure 7's patterns and the binding parity table's cases
# (internal/tk/bind_test.go), every widget class's options with an
# unknown colour, a non-integer and an ambiguous abbreviation
# (internal/widget/config_test.go), and Figures 1-5 with the lint
# fixtures (internal/lint/script_test.go).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadRequestFrame$$' -fuzztime 5s ./internal/xproto
	$(GO) test -run '^$$' -fuzz '^FuzzReadServerFrame$$' -fuzztime 5s ./internal/xproto
	$(GO) test -run '^$$' -fuzz '^FuzzEval$$' -fuzztime 5s ./internal/tcl
	$(GO) test -run '^$$' -fuzz '^FuzzExpr$$' -fuzztime 5s ./internal/tcl
	$(GO) test -run '^$$' -fuzz '^FuzzOptionDB$$' -fuzztime 5s ./internal/tk
	$(GO) test -run '^$$' -fuzz '^FuzzSendRecords$$' -fuzztime 5s ./internal/tk
	$(GO) test -run '^$$' -fuzz '^FuzzBindSequence$$' -fuzztime 5s ./internal/tk
	$(GO) test -run '^$$' -fuzz '^FuzzConfigure$$' -fuzztime 5s ./internal/widget
	$(GO) test -run '^$$' -fuzz '^FuzzLint$$' -fuzztime 5s ./internal/lint

# race-stress runs the tests of the connection queues ten times under
# the race detector: the display's event queue and wake channel
# (internal/xclient), the server's per-connection output buffer
# (internal/xserver) and Update's contract on top of them
# (internal/tk). The race detector sees only the interleavings a run
# executes, and two goroutines share each of these queues.
race-stress:
	$(GO) test -race -count=10 -run '^(TestSyncQueuesRoundEvents|TestWakeOnConnectionLoss|TestOpenGoroutines|TestPipelineStress|TestOwnEventsWaitForSlowReader|TestStalledReaderDoesNotStallOthers|TestDroppedEventsReachServerRegistry|TestMultiClientStressRace|TestUpdateDispatchesIdleHandlersEvents)$$' ./internal/xclient ./internal/xserver ./internal/tk

# bench runs the microbenchmarks, then every row of the gate table in
# gates_test.go, and writes BENCH_gates.json, the committed artifact,
# into the tree.
bench:
	$(GO) test -bench=. -benchmem
	OBS_BENCH=1 $(GO) test -run '^TestGates$$' -count=1 -timeout 600s .

# bench-smoke runs every row of the gate table in gates_test.go
# (pipelining, multi-client dispatch, span-sampling overhead, render
# storm and painters, the session farm, and wire protocol v2), each
# against the bound its row states. The test binary runs in
# .bench_build/smoke/, so BENCH_gates.json lands there and the tree
# stays clean. One row runs as -test.run 'TestGates/farm'; such a run
# leaves the artifact alone.
bench-smoke:
	mkdir -p .bench_build/smoke
	$(GO) test -c -o .bench_build/smoke/repro.test .
	cd .bench_build/smoke && OBS_BENCH=1 ./repro.test -test.run '^TestGates$$' -test.count=1 -test.timeout=10m

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
