GO ?= go

# qsmpilint is built fresh for each lint run; go vet caches results keyed
# by the tool binary's hash, so rebuilds only re-analyze what changed.
QSMPILINT := bin/qsmpilint

.PHONY: all build test check lint lint-sarif lintbench race loc bench figures perfbench report-par report-shards coll-shards overlap-smoke waitstate-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the fast-path gate: vet everything, then run the simulator
# kernel and matching-engine suites under the race detector. The kernel's
# lockstep discipline (exactly one simulated entity runs at a time) is
# what lets every pool and cache in the stack go lock-free, so these two
# packages are the ones that must stay race-clean. The fabric's committed
# send path runs in every simulation and the cluster is where it meets
# worker shards, so both suites run under -race too. So does the NIC's: an
# RDMA stream descriptor is written by the source NIC's shard and read by
# the destination's, and the golden replays at 2 and 4 workers under the
# race detector are the proof that the epoch barrier orders the hand-off.
# A Tport pull stream is the same shape one layer up — written by the
# sender's firmware, walked by the receiver's — so the baseline's suites run
# beside the NIC's.
# The experiments and parsweep suites run under -race too: they are where
# whole simulations execute concurrently, so any state shared between two
# kernels shows up there. The obs and trace suites carry the observability
# invariants: the golden cross-layer timelines, the proof that an attached
# tracer (or watchdog) never moves virtual time, the profiler's telescoping
# guarantee (phase durations sum exactly to end-to-end latency) and the
# watchdog's stall detection. Last, the benchmark: bench/ is a module of its
# own that compiles against obs, trace and cluster, so its short suite runs
# here too and cannot rot unseen between two runs of ci.yml.
check: lint
	$(GO) test -race ./internal/simtime/... ./internal/pml/...
	$(GO) test -race ./internal/fabric ./internal/elan4 ./internal/tport ./internal/mpichq ./internal/cluster
	$(GO) test -race ./internal/experiments ./internal/parsweep
	$(GO) test -race -count=1 ./internal/obs ./internal/trace
	$(GO) test -C bench -short ./...

# lint runs go vet with the repo's own analyzer suite loaded on top of
# the standard checks: detclock, maporder, kernelown, pooluse, tracecorr,
# reqlife and collorder, plus the //lint:allow suppression audit (see
# internal/lint and DESIGN.md §9). The suite turns the simulator's
# determinism, ownership, pooling and MPI-protocol invariants into build
# failures; collorder's CallsCollective facts flow between compilation
# units through the vetx files.
lint:
	$(GO) vet ./...
	$(GO) build -o $(QSMPILINT) ./cmd/qsmpilint
	$(GO) vet -vettool=$(QSMPILINT) ./...

# lint-sarif writes the machine-readable report the nightly CI uploads.
# The standalone driver shards packages across GOMAXPROCS workers; output
# is byte-identical at any parallelism.
lint-sarif:
	$(GO) run ./cmd/qsmpilint -sarif -o lint.sarif ./...

# lintbench records the lint suite's serial-vs-sharded wall-clock in the
# lint section of BENCH_wallclock.json (other sections untouched).
lintbench:
	$(GO) run ./cmd/perfbench -lintbench -out BENCH_wallclock.json

# race runs the entire test suite under the race detector — the nightly
# CI gate. check covers the concurrency-critical packages on every push;
# this covers everything.
race:
	$(GO) test -race ./...

# report-par proves the parallel sweep engine's determinism invariant
# end to end: the replication report must be byte-identical at -j 1 and
# -j (one worker per core).
report-par:
	$(GO) run ./cmd/report -j 1 > /tmp/qsmpi-report-j1.md
	$(GO) run ./cmd/report > /tmp/qsmpi-report-jN.md
	diff /tmp/qsmpi-report-j1.md /tmp/qsmpi-report-jN.md
	@echo "report output identical at -j 1 and -j N"

# report-shards proves the sharded conservative kernel's identity
# contract end to end (DESIGN.md §7.2): one simulation partitioned over
# 4 PDES shards must produce the byte-identical replication report.
report-shards:
	$(GO) run ./cmd/report -shards 1 > /tmp/qsmpi-report-s1.md
	$(GO) run ./cmd/report -shards 4 > /tmp/qsmpi-report-s4.md
	diff /tmp/qsmpi-report-s1.md /tmp/qsmpi-report-s4.md
	@echo "report output identical at -shards 1 and -shards 4"

# coll-shards extends the identity gate to the NIC-offloaded collective
# path at scale: a 1024-rank barrier/bcast/allreduce smoke — whose hot
# path is NIC-resident chain callbacks running inside shard workers —
# must be byte-identical at -shards 1 and -shards 4.
coll-shards:
	$(GO) run ./cmd/collsmoke -shards 1 > /tmp/qsmpi-coll-s1.txt
	$(GO) run ./cmd/collsmoke -shards 4 > /tmp/qsmpi-coll-s4.txt
	diff /tmp/qsmpi-coll-s1.txt /tmp/qsmpi-coll-s4.txt
	@echo "collective smoke identical at -shards 1 and -shards 4"

# overlap-smoke extends the identity gate to the overlap harness and the
# nonblocking-collective progress hooks: the per-mode overlap and
# availability ratios at 64 KB — whose hot path is progress sweeps
# interleaved with module threads and compute blocks — must be
# byte-identical at -shards 1 and -shards 4.
overlap-smoke:
	$(GO) run ./cmd/overlapsmoke -shards 1 > /tmp/qsmpi-overlap-s1.txt
	$(GO) run ./cmd/overlapsmoke -shards 4 > /tmp/qsmpi-overlap-s4.txt
	diff /tmp/qsmpi-overlap-s1.txt /tmp/qsmpi-overlap-s4.txt
	@echo "overlap smoke identical at -shards 1 and -shards 4"

# waitstate-smoke extends the identity gate to the telemetry pipeline:
# the wait-state attribution report over the seeded scenarios and the
# sampler heatmaps of a mixed workload — whose hot path is the
# kernel-timer sampler ticking at coordinator barriers while gauge
# probes read shard-owned state — must be byte-identical at -shards 1
# and -shards 4.
waitstate-smoke:
	$(GO) run ./cmd/wssmoke -shards 1 > /tmp/qsmpi-waitstate-s1.txt
	$(GO) run ./cmd/wssmoke -shards 4 > /tmp/qsmpi-waitstate-s4.txt
	diff /tmp/qsmpi-waitstate-s1.txt /tmp/qsmpi-waitstate-s4.txt
	@echo "wait-state smoke identical at -shards 1 and -shards 4"

# loc prints the non-test Go lines of each package of the simulator module
# and their total: the number ROADMAP aim 2 wants to see go down. bench/ is
# a module of its own and is left out.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

figures:
	$(GO) run ./cmd/elan4bench
	$(GO) run ./cmd/ompibench

perfbench:
	$(GO) run ./cmd/perfbench -out BENCH_wallclock.json
