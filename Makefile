GO ?= go

.PHONY: build test race vet lint lint-sarif vetcheck test-invariants bench-smoke \
	benchmark-smoke benchmark-selfcheck profile fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the full static gauntlet: stock go vet, the pregelvet suite
# (internal/analysis — interprocedural pool ownership, context/view escapes,
# map-iteration determinism, blocking calls and goroutine joins in compute
# paths, epoch stamping, transient-error classification, nil-safe
# observability, lock order), and, when present on PATH, staticcheck and
# govulncheck. The optional tools are best-effort so the target works in
# hermetic environments.
lint: vet
	$(GO) run ./cmd/pregelvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

# lint-sarif emits the pregelvet findings as machine-readable artifacts for
# code-scanning UIs: pregelvet.sarif (SARIF 2.1.0) plus a JSON array on
# stdout. Exit status still reflects findings, so CI can both gate and
# upload.
lint-sarif:
	$(GO) run ./cmd/pregelvet -json -sarif pregelvet.sarif ./...

# bin/pregelvet is rebuilt only when the analyzer engine or the command
# itself changed (fixtures under testdata/ are test inputs, not tool
# sources), so repeated `make vetcheck` runs hit go vet's result cache
# instead of relinking the tool and invalidating it via a new buildID.
PREGELVET_SRCS := $(shell find internal/analysis cmd/pregelvet -name '*.go' -not -path '*/testdata/*') go.mod
bin/pregelvet: $(PREGELVET_SRCS)
	$(GO) build -o $@ ./cmd/pregelvet

# vetcheck proves the vettool protocol end to end: build the pregelvet
# binary (if stale) and drive it through `go vet -vettool`, the way editors
# and CI integrations consume it — this is also the only mode that checks
# _test.go files, which the in-process loader skips.
vetcheck: bin/pregelvet
	$(GO) vet -vettool=$(CURDIR)/bin/pregelvet ./...

# test-invariants compiles in the runtime assertions (double-put canaries in
# the transport pool, receive-stream ordering checks, a dense recount of every
# superstep's frontier) and runs the suite
# under the race detector — the configuration the chaos soak is meant to
# shake bugs out of.
test-invariants:
	$(GO) test -race -tags pregel_invariants -timeout 45m ./...

# bench-smoke runs every go test benchmark once, to prove they run; the
# numbers are not a measurement. BenchmarkHotPath's rows are the
# allocation-counting suite: compare them parent against change on one
# machine with `go test -run '^$' -bench HotPath -benchmem -count 10 .`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# benchmark-smoke runs the repo benchmark (benchmark/, BENCHMARK.json) at
# test size on its two control-plane workloads, pr-transitions (checkpoint,
# confined recovery, scale-out and scale-in) and sssp-grid-steps (a thousand
# barriers), on bc-swath-tcp (broadcast records over real sockets) and on
# wcc-sub-frontend (the text loader, multilevel partitioning and the
# PartitionProgram path). Every job is checked against a sequential oracle,
# so this proves the transition protocol, the no-combiner message path and
# the front end end to end; the numbers are not a measurement.
benchmark-smoke:
	$(GO) run ./benchmark -tiny -seconds 1 -workload pr-transitions
	$(GO) run ./benchmark -tiny -seconds 1 -workload sssp-grid-steps
	$(GO) run ./benchmark -tiny -seconds 1 -workload bc-swath-tcp
	$(GO) run ./benchmark -tiny -seconds 1 -workload wcc-sub-frontend

# benchmark-selfcheck runs every workload twice in fresh processes at real
# size and checks the spread against BENCHMARK.json's bounds and the exact
# counts for equality (several minutes).
benchmark-selfcheck:
	$(GO) run ./benchmark -selfcheck

# profile is the "no optimisation without a profile" step as one command: run
# one repo-benchmark workload for 4 s, CPU- and allocation-profile the extra
# untimed jobs it runs after the timed reps, and print the top 25 functions
# by CPU and by bytes allocated (alloc_space, what alloc_mb counts; the
# allocation profile covers the whole process, set-up included). The
# profiles, the generated input and the reports go to PROFILE_DIR, outside
# the repository.
PROFILE_DIR ?= $(or $(TMPDIR),/tmp)/pregelnet-profile
profile:
	@test -n "$(WORKLOAD)" || { echo "usage: make profile WORKLOAD=<name from BENCHMARK.json>"; exit 2; }
	@mkdir -p $(PROFILE_DIR)
	$(GO) run ./benchmark -workload $(WORKLOAD) -seconds 4 -out $(PROFILE_DIR) \
		-cpuprofile $(PROFILE_DIR)/$(WORKLOAD).cpu -memprofile $(PROFILE_DIR)/$(WORKLOAD).mem
	$(GO) tool pprof -top -nodecount 25 $(PROFILE_DIR)/$(WORKLOAD).cpu
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 25 $(PROFILE_DIR)/$(WORKLOAD).mem

# fuzz runs each decoder fuzz target for FUZZTIME: the control-plane
# messages, the data-plane batch payload (the receive path's decoder), the
# TCP frame reader, the state blob (checkpoint restore and migration adopt),
# the resize traffic sidecar, every built-in
# program's per-vertex state codec, the two graph loaders (the text
# edge list differentially against its former parser, and the binary CSR
# format), and the job service's POST /jobs body decoder. go test fuzzes
# one target per invocation.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzControlMessages$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzBatchPayload$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzTCPFrame$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzStateBlob$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzResizeTraffic$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReadVertex$$' -fuzztime $(FUZZTIME) ./internal/algorithms
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzJobRequest$$' -fuzztime $(FUZZTIME) ./internal/jobserver
