GO ?= go

# qsmpilint is built fresh for each lint run; `go list -export` behind it
# recompiles only what changed.
QSMPILINT := bin/qsmpilint

.PHONY: all build test check lint lint-sarif race loc figures pairs

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
# Since descriptors are recycled the hand-off is every QDMA's too: the packet
# and the ack inside a descriptor are written by the source NIC's shard, read
# and answered by the destination's, and rewritten by the source for its next
# operation once the ack is home, so a retire that comes too early is a race
# the detector sees (TestDescriptorsReturnedSharded recycles one descriptor
# across shards forty times; nightly repeats the goldens and the
# TestDescriptorsReturned family at GOMAXPROCS=4).
# A Tport pull stream is the same shape one layer up — written by the
# sender's firmware, walked by the receiver's — so the baseline's suites run
# beside the NIC's. mpi and ptlelan4 hold the progress hooks (an NBC schedule
# advanced from whichever thread sweeps) and the progress threads that
# complete its sub-requests, so their suites run there too, and the TCP
# module's beside them: a dozen two-rank TCP jobs, raced nowhere else.
# The experiments and parsweep suites run under -race too: they are where
# whole simulations execute concurrently, so any state shared between two
# kernels shows up there — and experiments holds TestIdentityMatrix, the one
# gate for "-j and -shards change wall-clock only" and, through
# internal/experiments/testdata/report_golden.txt (recorded from the harnesses
# PR 21 replaced, never regenerated), the gate for "the figures did not move":
# every figure, claim, family and report of the tools to the float bit. The obs and trace suites
# carry the observability invariants: the golden cross-layer timelines, the proof that an attached
# tracer (or watchdog) never moves virtual time, the profiler's telescoping
# guarantee (phase durations sum exactly to end-to-end latency) and the
# watchdog's stall detection. The lint suite runs under -race as well:
# qsmpilint checks packages concurrently, and a package reads the
# collective tables its imports published with no lock, ordered only by
# waiting for those imports to finish (TestDriverFactsCrossPackages drives
# that hand-off at 4 workers). Last, the benchmark: bench/ is a module of its
# own that compiles against obs, trace and cluster, so its short suite runs
# here too and cannot rot unseen between two runs of ci.yml.
check: lint
	$(GO) test -race ./internal/simtime/... ./internal/pml/...
	$(GO) test -race ./internal/fabric ./internal/elan4 ./internal/tport ./internal/mpichq ./internal/cluster
	$(GO) test -race ./internal/mpi ./internal/ptlelan4 ./internal/ptltcp
	$(GO) test -race ./internal/experiments ./internal/parsweep
	$(GO) test -race -count=1 ./internal/obs ./internal/trace
	$(GO) test -race ./internal/lint/...
	$(GO) test -C bench -short ./...

# lint runs go vet, then the repo's own analyzer suite: detclock,
# maporder, kernelown, ownership, tracecorr and collorder, plus the
# //lint:allow suppression audit (see internal/lint and DESIGN.md §9). The
# suite turns the simulator's determinism, ownership, pooling and
# MPI-protocol invariants into build failures; the table of collective
# entry points collorder builds for a package reaches its dependents inside
# the one driver. bench/
# is a module of its own, outside ./..., so it gets a run of its own.
lint:
	$(GO) vet ./...
	$(GO) build -o $(QSMPILINT) ./cmd/qsmpilint
	$(QSMPILINT) ./...
	cd bench && ../$(QSMPILINT) ./...

# lint-sarif writes the machine-readable report the nightly CI uploads.
# The driver shards packages across GOMAXPROCS workers; output is
# byte-identical at any parallelism.
lint-sarif:
	$(GO) run ./cmd/qsmpilint -sarif -o lint.sarif ./...

# race runs the entire test suite under the race detector — the nightly
# CI gate. check covers the concurrency-critical packages on every push;
# this covers everything.
race:
	$(GO) test -race ./...

# loc prints the non-test Go lines of each package of the simulator module
# and their total: the number ROADMAP aim 2 wants to see go down. bench/ is
# a module of its own and is left out. The last line counts the panic(
# sites outside tests, the number ROADMAP item 2(d) wants to see go down.
LOCFILES = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*'
loc:
	@$(LOCFILES) | xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
	@$(LOCFILES) | xargs grep -o 'panic(' | wc -l | awk '{ printf "%7d panic( sites\n", $$1 }'

figures:
	$(GO) run ./cmd/elan4bench
	$(GO) run ./cmd/ompibench

# pairs measures the working tree against PARENT in N alternating pairs of
# fresh `bash bench/run.sh` runs per workload of W, appends every run to
# perf/trajectory.jsonl and prints medians, quartiles and k/n, with FAIL on
# a simulated-time change or a regression beyond BENCHMARK.json's bounds.
SEED ?= 1
pairs:
	bash perf/pairs.sh "$(PARENT)" "$(W)" "$(N)" "$(SEED)"
