# The serial pinned benchmark subset: the perf-gate benches whose ns/op is
# baselined in BENCH_baseline.json and whose profile feeds default.pgo.
# BenchmarkParallelExecutor and the hotpath worker sweep stay out — their
# wall-clock scales with the runner's core count.
PINNED_SERIAL = ^(BenchmarkTable3Preprocess|BenchmarkFig03Motivation|BenchmarkAblation|BenchmarkHotpathSerial|BenchmarkHotpathSerialWCC|BenchmarkHotpathSerialBFS|BenchmarkHotpathSerialSSSP|BenchmarkHotpathSerialKCore|BenchmarkHotpathSerialLabelProp|BenchmarkHotpathSerialPPR)$$

.PHONY: test bench-baseline pgo release allocs print-pinned

# print-pinned emits the pinned serial regex for CI steps that need it as a
# -bench argument (Make's $$ escapes collapse to single $ anchors here).
print-pinned:
	@echo '$(PINNED_SERIAL)'

# test bounds every package's run, so a stalled controller (a lockstep
# waiter nobody wakes, an owner that never prices) fails fast with the
# goroutine dump the test binary prints on timeout instead of hanging for
# the 10-minute default.
test:
	go build ./...
	go test -timeout 5m ./...

# allocs runs the steady-state allocation gates on their own: the
# per-algorithm AllocsPerRun zero-alloc assertions over ApplyChunk plus the
# grouped-state property tests they rest on and the differential against
# the test-only reference LRU (-v: the log shows they ran).
allocs:
	go test -run 'TestApplyChunkZeroAlloc' -v ./internal/engine
	go test -run 'TestGroupedState|TestReferenceLRUDifferential' -v ./internal/memsim

# bench-baseline refreshes the committed perf baseline from the pinned
# serial subset. Run on a quiet machine; CI compares every PR against this
# file with geomean-normalized ratios (>25% relative regression fails).
bench-baseline:
	go test -bench '$(PINNED_SERIAL)' -benchtime=3x -run '^$$' . \
		| go run ./cmd/benchgate parse \
			-note "pinned serial subset at -benchtime=3x; see README (CI) for the recipe" \
			-out BENCH_baseline.json

# pgo regenerates the committed default.pgo from the pinned serial subset.
# The profiling run itself is built with -pgo=off so the profile reflects
# the un-optimized binary's hot spots (profiling a PGO-built binary skews
# the sample toward whatever the previous profile missed). The Go toolchain
# picks up default.pgo at the repo root automatically for every later build.
pgo:
	go test -pgo=off -run '^$$' -bench '$(PINNED_SERIAL)' -benchtime=3x \
		-cpuprofile /tmp/graphm-pgo.prof .
	go tool pprof -proto /tmp/graphm-pgo.prof > default.pgo
	@echo "default.pgo regenerated ($$(wc -c < default.pgo) bytes)"

# release builds the PGO-optimized binaries. -pgo=auto is the default with
# default.pgo present; spelled out so a stale toolchain or a moved profile
# fails loudly instead of silently building without PGO.
release:
	go build -pgo=default.pgo -o bin/ ./cmd/...
	@echo "release binaries in bin/ (PGO: default.pgo)"
