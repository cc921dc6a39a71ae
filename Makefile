GO ?= go

.PHONY: check fmt vet build test race cover golden-trace bench-smoke fuzz-smoke chaos par-check flake cluster-smoke scale-smoke metrics-gate diff-backends metrics-baseline perf-baseline scale-baseline

## check: the pre-commit gate (mirrors .github/workflows/ci.yml) — gofmt,
## vet, build, race-test everything, verify the golden trace, a one-iteration
## pass over every benchmark so the perf kernels stay honest, ten seconds
## of fuzzing per diff and memsim kernel, the chaos
## suite under fault injection, the engine-worker determinism guard, the
## TCP flake detector, the multi-process cluster smoke against the
## simulator oracle, the 256-node scale smoke, the metrics regression
## gate against the committed baseline, the sim-vs-real
## counter-equivalence gate, and the per-package coverage floors.
check: fmt vet build race golden-trace bench-smoke fuzz-smoke chaos par-check flake cluster-smoke scale-smoke metrics-gate diff-backends cover
	@echo "check: OK"

## fmt: fail if any Go file is not gofmt-formatted, naming the files.
fmt:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## cover: per-package coverage floors (internal/core, internal/check).
## Fails if statement coverage drops below the baselines recorded in
## scripts/cover_gate.sh; raise a floor there when coverage rises.
cover:
	./scripts/cover_gate.sh

## golden-trace: the protocol event-order regression oracle. Regenerate
## with `go test ./internal/trace -run TestGoldenTrace -update` only for
## intentional protocol or exporter changes.
golden-trace:
	$(GO) test ./internal/trace -run TestGoldenTrace

## bench-smoke: run each benchmark exactly once. Catches benchmarks that
## panic or assert-fail without paying for stable timings.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

## fuzz-smoke: ten seconds of coverage-guided fuzzing per kernel:
## FuzzMakeDiff checks the word-at-a-time scan against the byte-wise
## reference through the wire codec and Apply, FuzzDecodeRuns feeds the
## decoder arbitrary bytes (no panic, allocation bounded by its input),
## FuzzAccessRange checks memsim's shortcut access paths against the
## full-walk reference (costs, counters and LRU order). Plain `go test`
## runs their seed corpora.
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzMakeDiff$$' -fuzztime=10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeRuns$$' -fuzztime=10s
	$(GO) test ./internal/memsim -run '^$$' -fuzz '^FuzzAccessRange$$' -fuzztime=10s

## chaos: the fault-injection suite — every app across the drop-rate
## table plus the fixed-corpus schedule fuzzer, all with the protocol
## invariant checker attached. Failures write violation reports into
## chaos-artifacts/.
chaos:
	CHAOS_ARTIFACT_DIR=chaos-artifacts $(GO) test ./internal/chaos ./internal/check -count=1

## par-check: the engine determinism guard — byte-identical checksums,
## run statistics, metrics reports, and Chrome traces across
## engine-workers 1, 2, and 4, fault-free and under a fuzzed fault
## schedule, plus the chaos engine-workers axis (workers 1, 2 and 4
## compared with each other under random fault plans, with the
## invariant checker attached).
par-check:
	$(GO) test ./internal/harness -run 'TestGuardDeterminism' -count=1
	$(GO) test ./internal/chaos -run TestEngineWorkersUnderChaos -count=1

## flake: repeat the real-TCP tests of the runtime and the transport 200
## times. A close, teardown or ordering race that fails one run in a
## hundred fails here instead of in someone else's tier-1 run.
flake:
	$(GO) test ./internal/rt ./internal/transport -run TCP -count=200

## cluster-smoke: boot a real 4-process cvm-node cluster (TCP data mesh
## on loopback) for sor and waternsq at test scale; the coordinator's
## -oracle requires an exact checksum match against the deterministic
## simulator. Proves the real-transport backend end to end.
cluster-smoke:
	./scripts/cluster_smoke.sh

## scale-smoke: one 256-node scaleout run — validated against the app's
## closed-form checksum, byte-identical across engine worker counts —
## proving the sparse page directory and spilled copysets far past the
## paper grid's cluster sizes.
scale-smoke:
	$(GO) test ./internal/harness -run 'TestScaleSmoke|TestRunScaleStudy' -count=1

## scale-baseline: regenerate the committed BENCH_scaleout.json scaling
## study (8 to 1024 nodes at paper size; takes several minutes).
scale-baseline:
	$(GO) run ./cmd/cvm-bench -experiment scaleout -size paper -scale-json BENCH_scaleout.json

## metrics-gate: re-run the baseline workload and compare its metrics
## report against the committed BASELINE_metrics.json. The simulator is
## deterministic, so any event-count drift fails hard; mean-latency
## drift beyond 25% warns. Regenerate intentionally with
## `make metrics-baseline` after protocol or calibration changes.
metrics-gate:
	$(GO) run ./cmd/cvm-run -app waternsq -nodes 4 -threads 2 -size test -metrics metrics_current.json >/dev/null
	$(GO) run ./cmd/cvm-metrics compare BASELINE_metrics.json metrics_current.json
	@rm -f metrics_current.json

## diff-backends: the sim-vs-real counter-equivalence gate. Run sor and
## waternsq at 4x2 on both backends — the deterministic simulator and
## the real runtime over the in-process loopback transport — and require
## every backend-invariant sync counter (lock acquires/releases, barrier
## and local-barrier arrivals, reductions) to match exactly. Wall-time
## histograms are reported side by side, never gated: the two backends
## measure different machines.
diff-backends:
	@for app in sor waternsq; do \
		echo "== diff-backends: $$app 4x2 =="; \
		$(GO) run ./cmd/cvm-run -app $$app -nodes 4 -threads 2 -size test -metrics sim_$$app.json >/dev/null || exit 1; \
		$(GO) run ./cmd/cvm-run -transport loopback -app $$app -nodes 4 -threads 2 -size test -metrics real_$$app.json >/dev/null || exit 1; \
		$(GO) run ./cmd/cvm-metrics diff-backends sim_$$app.json real_$$app.json || exit 1; \
		rm -f sim_$$app.json real_$$app.json; \
	done

## metrics-baseline: regenerate the committed metrics-gate baseline.
metrics-baseline:
	$(GO) run ./cmd/cvm-run -app waternsq -nodes 4 -threads 2 -size test -metrics BASELINE_metrics.json >/dev/null

## perf-baseline: regenerate BENCH_harness.json (compare before committing
## changes to the diff/memsim/harness hot paths).
perf-baseline:
	$(GO) run ./cmd/cvm-bench -experiment perf -size small -json BENCH_harness.json
