GO ?= go

.PHONY: all build test benchmark-test race vet fmt lint spec-check check bench bench-steady bench-control benchdiff checkdocs expdiff docs cover profile scale

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark-test vets and tests the benchmark module (its own go.mod,
# outside ./...): it compiles against the public entry points the
# pipeline's benchmark run probes, so a PR that breaks one fails here
# (~25 s) rather than at that run.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails if any file is not gofmt-clean, and prints the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs staticcheck at a zero-findings baseline (falls back to
# go vet + gofmt where staticcheck is not installed; see scripts/lint.sh).
lint:
	./scripts/lint.sh

# spec-check validates every example spec document: load + resolve +
# dry-run diff against a generated fat-tree fabric (the same stages
# `flexctl spec apply` runs before touching the network).
spec-check:
	$(GO) run ./cmd/flexbench -spec-check examples/specs

check: fmt vet lint spec-check build test benchmark-test race docs

bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' . ./internal/flexbpf ./internal/telemetry ./internal/netsim ./internal/fabric

# bench-steady measures the flow cache against its oracle: serial is
# the FlowCache(false) fabric that runs the pipeline for every packet,
# cache the default one (the table in BENCH_PR7.md comes from this
# target).
bench-steady:
	$(GO) test -bench 'BenchmarkSteadyStatePipeline' -benchmem -benchtime 10x -run '^$$' .

# bench-control measures the control-plane fast path (DESIGN.md §13):
# per-op planning cost incremental vs full-recompute, plus the E18
# experiment end-to-end (the BENCH_PR8.md table comes from this target),
# then the four spec operations on the storm's shape (§14.2) and what
# one program install costs a device.
bench-control:
	$(GO) test -bench 'BenchmarkControlPlaneOps|BenchmarkE18ControlPlane' -benchmem -benchtime 5x -run '^$$' .
	$(GO) test -bench 'BenchmarkSpecOps' -benchmem -benchtime 50x -run '^$$' .
	$(GO) test -bench 'BenchmarkInstall' -benchmem -benchtime 5000x -run '^$$' ./internal/dataplane

# profile runs the experiment suite under the CPU and heap profilers;
# inspect with `go tool pprof cpu.pprof`.
profile: build
	$(GO) run ./cmd/flexbench -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof mem.pprof"

# scale smoke-tests the incremental routing engine on a k=8 fat-tree:
# fail/restore a deterministic sample of links and verify every
# converged state is byte-identical to a full recompute (CI gate).
scale:
	$(GO) run ./cmd/flexbench -topo fat-tree:k=8 -seed 1

# benchdiff regenerates the deterministic flexbench output and fails if
# it drifted from the checked-in BENCH_BASELINE.md (CI gate).
benchdiff:
	./scripts/benchdiff.sh

# checkdocs fails unless every package carries a godoc package comment
# and every internal package's comment cites its DESIGN.md section.
checkdocs:
	./scripts/checkdocs.sh

# expdiff fails if EXPERIMENTS.md's measured section drifted from
# flexbench's deterministic output (CI gate, like benchdiff).
expdiff:
	./scripts/expdiff.sh

docs: checkdocs expdiff

# cover writes a coverage profile and prints the per-function summary;
# the last line is the total, which CI surfaces in the job log.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 25
