GO ?= go

.PHONY: all build test vet lint race cover cover-gate cover-check \
	fuzz-smoke smoke-examples metrics-smoke e2e-procs bench bench-smoke \
	bench-baseline bench-compare bench-json bench-check bench-pairs profile-kernels profile-live loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Lint: formatting must be clean, vet must pass, and staticcheck runs when
# installed (CI installs it; locally it is optional). The final grep pins
# every "hetgc_ metric name literal in production code to
# internal/obs/names.go, so the sim and live runtimes cannot drift apart on
# naming. Tests and examples are exempt: they assert on the text exposition
# deliberately, as black-box scrape consumers. The s390x cross-build (pure Go,
# nothing to download) is for internal/transport/hostorder.go, the one place
# that branches on the host's byte order and the one import of unsafe: no
# runner is big-endian to take that branch, so the tree is at least built, and
# the package vetted (unsafeptr), for a target that would. The last grep keeps
# encoding/gob out of the module, tests included: every message rides the one
# binary frame. The import check keeps the simulator and the experiments off
# the durable-state packages (checkpoint, ha, rootcore): the durable root
# lives in rootcore alone, so a crash, lease or snapshot fix has one place to
# land. The caller count keeps one root: shard.Root is the only code outside
# tests and bench/ that builds a roster engine or opens a root core, so a flat
# cluster stays its one-group case instead of a second master. The test check
# keeps one fixture: no test under internal/ builds a root itself, so every
# live root a test stands up comes from testkit's builder (testkit.Open), and
# its address and workers change in one place. The hello check keeps one
# honest worker: only the worker (runtime), the roster's ack and testkit's
# scripted worker, which misbehaves on purpose, build a MsgHello envelope, so
# a test cluster runs the follow loop that ships instead of a copy of it.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	GOOS=linux GOARCH=s390x $(GO) build ./...
	GOOS=linux GOARCH=s390x $(GO) vet ./internal/transport
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@bad=$$(grep -rn '"hetgc_' --include='*.go' --exclude='*_test.go' \
		--exclude-dir=examples . | grep -v 'internal/obs/names.go'); \
	if [ -n "$$bad" ]; then \
		echo "metric name literals outside internal/obs/names.go (use the obs.M* constants):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "metric names: single-sourced in internal/obs/names.go"
	@bad=$$(grep -rl '"encoding/gob"' --include='*.go' --exclude-dir=.bench_build .); \
	if [ -n "$$bad" ]; then \
		echo "encoding/gob imported (every message rides the binary frame):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "encoding/gob: imported nowhere"
	@bad=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/sim ./internal/experiments | \
		grep -E 'internal/(checkpoint|ha|rootcore)( |$$)'); \
	if [ -n "$$bad" ]; then \
		echo "sim/experiments import durable-state packages (the durable root is rootcore's alone):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "durable state: not imported by sim or experiments"
	@for fn in 'roster.New(' 'rootcore.Open('; do \
		n=$$(grep -rnF --include='*.go' --exclude='*_test.go' --exclude-dir=bench \
			--exclude-dir=.bench_build "$$fn" . | wc -l); \
		if [ "$$n" -ne 1 ]; then \
			echo "$$fn has $$n callers outside tests and bench/, want 1 (shard.Root is the one root)"; \
			exit 1; \
		fi; \
	done
	@echo "roster.New, rootcore.Open: one caller each (shard.Root)"
	@for fn in 'NewRoot(' 'NewElasticMaster('; do \
		bad=$$(grep -rnF --include='*_test.go' "$$fn" internal); \
		if [ -n "$$bad" ]; then \
			echo "$$fn in a test under internal/ (bring the root up with testkit.Open or testkit.Start, the one fixture):"; \
			echo "$$bad"; exit 1; \
		fi; \
	done
	@echo "NewRoot, NewElasticMaster: no caller in internal/ tests (testkit builds every live root)"
	@bad=$$(grep -rnF --include='*.go' --exclude='*_test.go' \
		-e '.(ml.Coder)' -e 'Model.Gradient(' internal/runtime); \
	if [ -n "$$bad" ]; then \
		echo "internal/runtime calls a model outside ml.CodedGradient (the one coded-gradient path):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "runtime: models called through ml.CodedGradient only"
	@bad=$$(git grep -nE 'Type *[:=] *(transport\.)?MsgHello([^A-Za-z0-9_]|$$)' -- '*.go' ':!*_test.go' ':!bench/*' \
		':!internal/runtime/elastic_worker.go' ':!internal/roster/roster.go' ':!internal/testkit/worker.go'); \
	if [ -n "$$bad" ]; then \
		echo "MsgHello built outside the worker, the roster and testkit's scripted worker (run runtime.Follow):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "MsgHello: built by the worker, the roster and the scripted worker only"

race:
	$(GO) test -race ./...

# COVERAGE_FLOOR is the minimum total statement coverage (percent) the test
# suite must reach; cover-check fails below it. Raise it as coverage grows.
COVERAGE_FLOOR ?= 80.0

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# cover-gate checks an existing coverage.out against the floor without
# re-running the suite (CI produces the profile in its race-test step).
cover-gate:
	@test -f coverage.out || { echo "coverage.out missing; run 'make cover' first"; exit 1; }
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	awk -v t="$$total" -v floor="$(COVERAGE_FLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "total coverage %.1f%% is below the %.1f%% floor\n", t, floor; exit 1 } \
		printf "total coverage %.1f%% >= %.1f%% floor\n", t, floor }'

cover-check: cover cover-gate

# Short fuzz smoke over every defensive decode path: the join/rejoin
# handshake (any byte stream a peer opens with must yield a valid hello or a
# typed transport.ErrMalformed), the checkpoint snapshot/journal decoders
# (truncated, bit-flipped or garbage bytes must yield typed
# checkpoint.ErrCorrupt — never a panic, never a silent mis-decode), the
# lease-token codec (arbitrary LEASE file bytes must yield an error wrapping
# checkpoint.ErrCorrupt), and the frame every message rides (control
# messages and their payloads, the retired numbers, arbitrary headers, codec
# bytes, span sections, batches and truncated or quantized payloads must
# yield transport.ErrMalformed, or fail a stream that does not open a frame —
# never a panic, never a dim-sized allocation). Four
# targets are not decoders: the load allocator, whose output every plan is
# built on (valid loads that no single-copy move improves), the int8
# encoder, whose payload must equal the reference encoder's byte for byte,
# the one-pass coded gradient, which must equal grad.EncodeInto over the
# per-partition gradients bit for bit, and the root's one-pass decode, which
# must equal CombineInto, Scale and InfOrNaN bit for bit. A
# failing input is written to the package's testdata/fuzz; rerun it with
# `go test -run 'Fuzz<Target>/<name>' ./internal/<pkg>`.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadHello$$' -fuzztime $(FUZZTIME) ./internal/roster
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzJournal$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzLease$$' -fuzztime $(FUZZTIME) ./internal/ha
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzRoster$$' -fuzztime $(FUZZTIME) ./internal/node
	$(GO) test -run '^$$' -fuzz '^FuzzProportionalLoads$$' -fuzztime $(FUZZTIME) ./internal/partition
	$(GO) test -run '^$$' -fuzz '^FuzzInt8MatchesReference$$' -fuzztime $(FUZZTIME) ./internal/grad
	$(GO) test -run '^$$' -fuzz '^FuzzCodedGradient$$' -fuzztime $(FUZZTIME) ./internal/ml
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMean$$' -fuzztime $(FUZZTIME) ./internal/grad

# Build every example and smoke-run the quickstart: a panic in its main path
# must fail the build pipeline, not linger unnoticed (5s budget where
# `timeout` exists — stock macOS ships without coreutils). distributed is
# built but not run: it takes close to the budget on a warm cache.
smoke-examples:
	$(GO) build ./examples/...
	@if command -v timeout >/dev/null 2>&1; then \
		timeout 5 $(GO) run ./examples/quickstart; \
	else \
		$(GO) run ./examples/quickstart; \
	fi

# Non-test Go lines outside bench/: the size figure simplicity changes are
# measured by. Only files git tracks count (a new file counts once it is
# added), so the ignored trees that bench runs extract under .bench_build/
# never inflate it.
loc:
	@git ls-files -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/*' | xargs cat | wc -l

# Live telemetry smoke: each runtime (elastic and sharded) trains a loopback
# cluster with checkpointing and the HA lease on while serving /metrics; the
# tests scrape mid-run and assert the acceptance families carry non-zero
# samples — iteration counters, throughput estimates, decode-cache hit rate,
# snapshot activity and the lease generation. `make test` runs these too;
# this named target is the CI entry point.
metrics-smoke:
	$(GO) test -run 'TestMetricsSmoke' -v .

# Multi-process failover e2e: builds the gcroot/gcworker binaries, spawns a
# real cluster (1 root + 1 standby + 4 workers as separate OS processes, with
# training shards fetched over the wire), SIGKILLs the root mid-training and
# asserts the promoted standby finishes with parameters bit-identical to an
# uninterrupted in-process run. Point HETGC_E2E_ARTIFACTS at a directory to
# keep the per-process logs and /debug/events journal tails.
e2e-procs:
	HETGC_E2E_PROCS=1 $(GO) test -v -run '^TestProcClusterFailover$$' -timeout 300s ./e2e

# The end-to-end benchmark (bench/) is a nested module: `go build ./...` and
# `go test ./...` at the root neither compile nor run it, so an API change it
# compiles against goes unnoticed here. Vet and test it in place, with the
# environment bench/run.sh builds it under.
bench-check:
	GOFLAGS=-mod=mod GOWORK=off $(GO) vet -C bench ./...
	GOFLAGS=-mod=mod GOWORK=off $(GO) test -C bench ./...

# Paired runs of the end-to-end benchmark, the protocol every performance
# change is measured by: PARENT's tree (extracted under .bench_build/pairs/)
# against this checkout, each built by its own bench/run.sh, PAIRS untraced
# runs per workload at BENCHMARK.json's run length, pair i on seed i,
# alternating which side runs first. Prints every run, then per workload and
# end-to-end metric both medians, both inter-quartile spreads and the pairs
# this checkout won. Not for CI: timing on a shared runner means nothing.
#   make bench-pairs PARENT=HEAD~1 WORKLOADS=hetero-straggler,flat-raw PAIRS=10
PAIRS ?= 10
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [WORKLOADS=a,b] [PAIRS=10]"; exit 2; }
	$(GO) run ./cmd/gcbench -pairs -parent $(PARENT) -n $(PAIRS) $(if $(WORKLOADS),-workloads $(WORKLOADS))

# Full benchmark sweep with allocation reporting.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One-iteration smoke pass (CI): checks every benchmark still runs.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Emit the machine-readable benchmark baseline tracked in BENCH_baseline.json.
# Future perf PRs regenerate it and diff the trajectory. -p 1 (here and in
# the gate below) runs one package's benchmarks at a time: the socket benches
# need both ends scheduled, and a neighbouring package's sweep on the same
# cores moved them by 25 % run to run.
bench-baseline:
	$(GO) test -p 1 -run '^$$' -bench . -benchmem ./... | $(GO) run ./cmd/gcbench > BENCH_baseline.json
	@echo wrote BENCH_baseline.json

# Regression gate: rerun the gated benchmarks — decode/encode hot paths, the
# quantized batched-uplink wire benches (gating their wire-B/iter extras),
# the wire layer's own benches (the float codec kernels, one vector frame end
# to end, the roster's parameter broadcast), the worker's compute step (one
# softmax gradient; four of them encoded, and the same four in one pass) and
# the fleet-scale IterRate
# throughput benches (gating iter/s) — and fail when any regressed beyond
# BENCH_TOLERANCE versus the committed
# baseline. Override the tolerance when the hardware differs from the
# baseline machine (CI does).
BENCH_TOLERANCE ?= 0.25
bench-compare:
	$(GO) test -p 1 -run '^$$' -bench 'Decode|Encode|Uplink|IterRate|Broadcast|Frame|Float64Codec|SoftmaxGradient' -benchmem ./... > /tmp/hetgc-bench-current.txt
	$(GO) run ./cmd/gcbench -compare BENCH_baseline.json -tolerance $(BENCH_TOLERANCE) < /tmp/hetgc-bench-current.txt

# Emit the current benchmark sweep as JSON (BENCH_current.json) without
# touching the committed baseline — CI uploads it as a workflow artifact.
# Two commands, not a pipe: a bench build failure or panic must fail the
# target instead of being masked by gcbench's exit status.
bench-json:
	$(GO) test -p 1 -run '^$$' -bench . -benchmem ./... > /tmp/hetgc-bench-json.txt
	$(GO) run ./cmd/gcbench < /tmp/hetgc-bench-json.txt > BENCH_current.json
	@echo wrote BENCH_current.json

# CPU profiles of the per-iteration kernels at the end-to-end benchmark's
# shape: where a kernel change starts. kernels.prof holds internal/ml's — the
# worker's gradient and encode, and the root's optimizer step; decode.prof
# internal/grad's root decode pass. Read them with
# `$(GO) tool pprof -top ml.test kernels.prof` and
# `$(GO) tool pprof -top grad.test decode.prof`.
profile-kernels:
	$(GO) test -run '^$$' -bench '^Benchmark(SoftmaxGradient|WorkerComputeEncode|WorkerComputeEncodeFused|SGDStep)$$' -benchtime 3s \
		-cpuprofile kernels.prof -o ml.test ./internal/ml
	$(GO) test -run '^$$' -bench '^BenchmarkDecodeMean$$' -benchtime 3s \
		-cpuprofile decode.prof -o grad.test ./internal/grad
	@echo "wrote kernels.prof (binary: ml.test) and decode.prof (binary: grad.test)"

# CPU profile of live clusters at the end-to-end benchmark's model size: the
# flat and two-group runs of TestAllocationCeiling, root, readers and workers
# in one process on loopback. Where a root change starts: a kernel's verdict
# on an idle box (profile-kernels) can flip once the readers, the workers and
# the other group share the cores. Read it with
# `$(GO) tool pprof -top shard.test live.prof`.
profile-live:
	$(GO) test -run '^TestAllocationCeiling$$' -count 3 -cpuprofile live.prof -o shard.test ./internal/shard
	@echo "wrote live.prof (binary: shard.test)"
