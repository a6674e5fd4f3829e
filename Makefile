GO ?= go

.PHONY: all build test benchmark-test race mutants fuzz vet fmt lint spec-check check bench bench-steady bench-control benchdiff checkdocs docs cover profile scale reach

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

# mutants runs the checks that must be able to fail against builds broken
# on purpose: the flow-cache chaos soak against device commits that keep
# the previous configuration's cache (build tag flowcache_reuse_mutant,
# internal/dataplane/flowcache_commit_mutant.go) must count stale serves,
# and the array-map model check and the heavy-hitter migration check
# against an array map whose Export drops slots written with 0 (build tag
# state_array_mutant, internal/dataplane/state/slots_mutant.go) must
# report a mismatch; and the packet lifetime check must fail against a
# fabric that releases a forwarded packet to the pool while its link
# still carries it (build tag packet_release_mutant,
# internal/fabric/packet_release_mutant.go): the line passes only when
# TestPacketConservationProperty reports FAIL, not on a build error; and
# the reachability gate must fail and name the uncalled function a
# reach_mutant build declares (internal/plan/reach_mutant.go).
mutants:
	$(GO) test -tags flowcache_reuse_mutant -run '^TestChaosSoakCatchesCacheReuse$$' -count=1 .
	$(GO) test -tags state_array_mutant -run '^(TestArrayModelCatchesExportMutant|TestMigrationCatchesExportMutant)$$' -count=1 ./internal/dataplane/state ./internal/migrate
	@out=$$($(GO) test -tags packet_release_mutant -run '^TestPacketConservationProperty$$' -count=1 ./internal/fabric 2>&1); \
	if echo "$$out" | grep -q -- '--- FAIL: TestPacketConservationProperty'; then \
		echo "packet_release_mutant: caught by TestPacketConservationProperty"; \
	else echo "$$out"; echo "packet_release_mutant: TestPacketConservationProperty did not fail"; exit 1; fi
	@out=$$($(GO) run ./scripts/reach -tags reach_mutant 2>&1); rc=$$?; \
	if [ $$rc -ne 0 ] && echo "$$out" | grep -q -- 'flexnet/internal/plan.ReachMutant .* is linked into no product binary'; then \
		echo "reach_mutant: caught by scripts/reach"; \
	else echo "$$out"; echo "reach_mutant: scripts/reach did not fail on ReachMutant"; exit 1; fi

# fuzz runs each native fuzz target for FUZZTIME (30 s) past its seed
# corpus: the header chain against its []string model, the flow
# cache's record→replay round trip against an uncached device, and the
# spec decoder against encoding/json. Go fuzzes one target per
# invocation.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzHeaderChain$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzFlowCacheEquivalence$$' -fuzztime $(FUZZTIME) ./internal/dataplane
	$(GO) test -run '^$$' -fuzz '^FuzzSpecLoad$$' -fuzztime $(FUZZTIME) ./internal/spec

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

# check is the whole local gate: formatting, vet and lint, the spec
# examples, the tests (plain, race and mutants; what each experiment
# table must show is its shape test in internal/experiments), the
# benchmark module, the k=8 routing scale check, the byte-identity gate
# on flexbench's output, the reachability gate and the docs gate.
check: fmt vet lint spec-check build test benchmark-test race mutants scale benchdiff reach docs

bench:
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' . ./internal/flexbpf ./internal/telemetry ./internal/netsim ./internal/fabric ./internal/dataplane

# bench-steady measures the flow cache against its oracle: serial is
# the FlowCache(false) fabric that runs the pipeline for every packet,
# cache the default one (the table in BENCH_PR7.md comes from this
# target).
bench-steady:
	$(GO) test -bench 'BenchmarkSteadyStatePipeline' -benchmem -benchtime 10x -run '^$$' .

# bench-control measures the control-plane fast path (DESIGN.md §13):
# per-op planning cost incremental vs full-recompute, plus the E18
# experiment end-to-end (the BENCH_PR8.md table comes from this target),
# then the spec operations on the storm's shape — load, fingerprint,
# resolve, diff, status and apply (§14.2) — and what one program
# install costs a device.
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

# benchdiff runs flexbench once at seed 1 and fails unless its tables are
# byte-identical to EXPERIMENTS.md's measured section and its header and
# telemetry summary to BENCH_BASELINE.md (CI gate).
benchdiff:
	./scripts/benchdiff.sh

# checkdocs fails unless every package carries a godoc package comment
# and every internal package's comment cites its DESIGN.md section, and
# unless every flag, test, Go name and make target the docs cite exists
# (see scripts/checkdocs.sh).
checkdocs:
	./scripts/checkdocs.sh

# reach fails when non-test Go declares a function that no product
# binary (flexnetd, flexctl, flexbench, the examples, benchmark/) links
# and that scripts/reach.allow does not name with a reason: a reference
# oracle, a fault or observation hook a named test needs, or root API a
# doc shows. An allowlist entry that is linked now or no longer declared
# fails too (see scripts/reach).
reach:
	$(GO) run ./scripts/reach

docs: checkdocs

# cover writes a coverage profile and prints the per-function summary;
# the last line is the total, which CI surfaces in the job log.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 25
