# Standard verify loop. `make check` is what CI and pre-commit should run.
# In order, it runs:
#   fmtcheck       a gofmt gate over every tracked Go file, bench/ included
#   vet, build     go vet ./... and go build ./...
#   race           the full test suite under the race detector, so the
#                  parallel trial runner's no-shared-state rule is checked
#                  on every pass
#   golden         every figure's and ablation's -quick stdout digest
#   poisoncheck    the tests and both goldens under -tags retri_poison
#   benchtest      the bench/ module's tests
#   fuzz           a short coverage-guided pass over each FUZZ_TARGETS entry
#   benchcompare   the benchmark smoke, so the benchmarks never bit-rot,
#                  gated against the newest committed BENCH_*.json
#   cover          the statement-coverage floor on each COVER_PKGS package
#   trace-demo     the span-tracing path end to end
#   chaossmoke     every chaos cell with soak audits
#   scalesmoke     a 10^5-node massive trial, byte-stable across -parallel
#   multihopsmoke  every multihop arm, audited, byte-stable across -parallel

GO ?= go
FUZZTIME ?= 10s
# `go test -fuzz` accepts exactly one target per invocation and one
# package per -fuzz run, so the short CI pass loops over pkg:target pairs.
FUZZ_TARGETS := \
	./internal/frame/:FuzzAFFDecode \
	./internal/frame/:FuzzStaticDecode \
	./internal/frame/:FuzzAFFBitFlip \
	./internal/frame/:FuzzStaticBitFlip \
	./internal/mobility/:FuzzMobilityScript \
	./internal/flood/:FuzzRelayEnvelope

# Packages whose statement coverage `make cover` gates, with the floor in
# percent. The density/adapt/oracle chain is the correctness core of the
# adaptive-width story: the estimators feed the controller, and the oracle
# is the harness that judges both, so holes there are holes in the proof.
# dynaddr is the conventional baseline the comparisons lean on — an
# untested baseline would make every "RETRI avoids this" claim soft. truth
# is the ground-truth lifecycle both the oracle and the span tracer read.
# reasm is the partial-packet table under all three reassemblers, so a
# hole there is a hole in both sides of every collision measurement.
# frame, aff and staticaddr are the one codec and split loop both
# fragment formats share and the two services built on them.
COVER_PKGS := internal/density internal/adapt internal/oracle internal/truth internal/dynaddr internal/reasm \
	internal/frame internal/aff internal/staticaddr
COVER_FLOOR := 80

.PHONY: check fmtcheck vet build test race golden poisoncheck benchtest fuzz benchsmoke benchcompare bench profile cover trace-demo chaossmoke scalesmoke multihopsmoke loc

check: fmtcheck vet build race golden poisoncheck benchtest fuzz benchcompare cover trace-demo chaossmoke scalesmoke multihopsmoke

# fmtcheck fails when any tracked Go file, bench/ included, is not gofmt
# formatted, and names the files.
fmtcheck:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmtcheck: not gofmt-formatted:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package, so
# accidental inter-test state dependencies fail in CI instead of lurking.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -shuffle=on -race ./...

# golden pins every figure's and ablation's -quick stdout against
# cmd/retri-experiments/testdata/golden.json. It skips itself under -race
# (too slow there), so it runs here uninstrumented.
golden:
	$(GO) test -count=1 -run '^TestQuickStdoutGolden$$' ./cmd/retri-experiments/

# poisoncheck reruns the tests under the retri_poison build tag, which
# overwrites a medium frame buffer, a lent delivery buffer and a
# fragmenter's frame arena before each is reused (internal/poison). A
# reader that keeps such memory past its lifetime then reads garbage, so
# a golden moves or a round trip fails. The two goldens run by name as
# well, uncached, since they pin every sweep's bytes.
poisoncheck:
	$(GO) test -tags retri_poison ./...
	$(GO) test -tags retri_poison -count=1 -run '^TestQuickStdoutGolden$$' ./cmd/retri-experiments/
	$(GO) test -tags retri_poison -count=1 -run '^TestGoldenDigests$$' ./internal/experiment/

# benchtest builds and tests the end-to-end benchmark, its own module
# under bench/ that root `go test ./...` never reaches. It reads the
# sweeps' results (oracle reports included), so an API change there must
# fail here rather than at the next benchmark run.
benchtest:
	cd bench && $(GO) test ./...

fuzz:
	@for entry in $(FUZZ_TARGETS); do \
		pkg=$${entry%%:*}; target=$${entry##*:}; \
		echo "fuzz $$pkg $$target ($(FUZZTIME))"; \
		$(GO) test $$pkg -run "^$$target$$" -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# benchsmoke runs every benchmark once (so API drift breaks the build, not
# the next measurement), then re-runs the gated families — wire codec,
# medium delivery, engine event loop (a 100-event run and the warm
# steady state), the listening selector's draw, one 80-byte packet
# reassembled and one end to end, one ARQ round trip and one ground-truth
# tracker transaction — at a real iteration count
# with five repeats, and the shard-engine family (whole-trial macro
# benchmarks, far too heavy for 1000x) at a lighter count that still
# clears benchjson's min-iters bar. All passes stream through one benchjson invocation, which
# keeps the highest-iteration, fastest-repeat measurement per benchmark
# (minimum over repeats: shared-host steal time only ever inflates a
# timing) and leaves BENCH_$(PR).json behind: smoke coverage for
# everything, trustworthy ns/op for the benchmarks the perf gate reads.
# PR defaults to one past the newest committed BENCH_<n>.json, so a bare
# `make check` writes a fresh snapshot instead of overwriting a committed
# one, and benchcompare gates it against the newest committed snapshot.
# It is resolved once and exported, so benchcompare's sub-makes agree.
ifndef PR
PR := $(shell { git ls-files 'BENCH_*.json' 2>/dev/null || ls BENCH_*.json; } | \
	sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$$/\1/p' | awk '$$1 > n { n = $$1 } END { print n + 1 }')
endif
export PR
GATED_BENCH := ^Benchmark(AFFEncodeData|AFFDecodeData|Medium|ScheduleRun|EngineSteadyState|EndToEndPacket|Reassemble80Byte|ListeningNext|ARQRoundTrip|TrackerTransaction)
GATED_PKGS := . ./internal/frame/ ./internal/radio/ ./internal/sim/ ./internal/aff/ ./internal/core/ ./internal/arq/ ./internal/truth/
SHARD_BENCH := ^BenchmarkShard
benchsmoke:
	( $(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... && \
	  $(GO) test -run '^$$' -bench '$(GATED_BENCH)' -benchtime 1000x -count 5 -benchmem $(GATED_PKGS) && \
	  $(GO) test -run '^$$' -bench '$(SHARD_BENCH)' -benchtime 20x -count 3 -benchmem ./internal/shard/ ) \
	| $(GO) run ./cmd/benchjson -pr $(PR) -out BENCH_$(PR).json

# benchcompare gates the fresh snapshot against the newest committed one
# from an earlier PR: >20% growth in ns/op or allocs/op on a gated
# benchmark (or a gated benchmark vanishing) fails the build. ns/op is
# only trusted when both sides ran >= 10 iterations; allocs/op always is.
# Timing on a shared host rides minutes-long steal-time waves that even
# best-of-5 can't always dodge, so a failed comparison re-measures up to
# twice more before failing for real. Retries can only rescue timing
# noise: an allocs/op regression is deterministic and fails every
# attempt, and a real ns/op regression survives quiet windows too.
benchcompare:
	@prev=$$(ls BENCH_*.json 2>/dev/null | grep -v "^BENCH_$(PR).json$$" | sort -t_ -k2 -n | tail -1); \
	if [ -z "$$prev" ]; then \
	  $(MAKE) benchsmoke; \
	  echo "benchcompare: no earlier snapshot, skipping"; exit 0; \
	fi; \
	for attempt in 1 2 3; do \
	  $(MAKE) benchsmoke || exit 1; \
	  if $(GO) run ./cmd/benchjson -compare $$prev BENCH_$(PR).json; then exit 0; fi; \
	  echo "benchcompare: attempt $$attempt over threshold; re-measuring"; \
	done; \
	echo "benchcompare: regression persisted across 3 measurement attempts"; exit 1

bench:
	$(GO) test -bench . -benchmem ./...

# cover enforces a per-package statement-coverage floor on the estimator /
# controller / oracle chain. Coverage is computed per package (not merged)
# so a well-covered neighbour cannot paper over an untested one.
cover:
	@for pkg in $(COVER_PKGS); do \
		out=$$($(GO) test -cover ./$$pkg/ | tail -1); \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage figure for $$pkg: $$out"; exit 1; fi; \
		ok=$$(awk "BEGIN{print ($$pct >= $(COVER_FLOOR)) ? 1 : 0}"); \
		echo "cover $$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
		if [ "$$ok" != 1 ]; then echo "cover: $$pkg below $(COVER_FLOOR)% floor"; exit 1; fi; \
	done

# profile runs a quick figure-4 sweep with the CLI's profiling flags and
# leaves pprof artifacts plus the metrics/trace side files in ./profiles.
# Inspect with: go tool pprof profiles/cpu.pprof
profile:
	mkdir -p profiles
	$(GO) run ./cmd/retri-experiments -figure 4 -quick -parallel 0 \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof \
		-metrics-out profiles/metrics.json -trace-out profiles/trace.jsonl \
		-progress > profiles/figure4.txt
	@echo "wrote profiles/{cpu,mem}.pprof, metrics.json, trace.jsonl, figure4.txt"

# trace-demo exercises the whole span-tracing path end to end: a short
# dynamics run with the ledger on, then the query CLI's root-cause
# summary over the ledger it wrote. Figure output goes to a side file so
# the demo's stdout is the retri-trace report itself.
trace-demo:
	mkdir -p profiles
	$(GO) run ./cmd/retri-experiments -figure dynamics -scenarios churn \
		-policies fixed,adaptive -trials 2 -duration 10s \
		-span-out profiles/spans.jsonl > profiles/dynamics.txt
	$(GO) run ./cmd/retri-trace -in profiles/spans.jsonl -failed

# chaossmoke is the short-horizon compound-fault gate: every profile x
# policy x mode cell with soak checkpoints on, so a regression in the
# degradation paths or an oracle violation under compound faults fails CI
# in seconds rather than surfacing in a long soak run.
chaossmoke:
	$(GO) run ./cmd/retri-experiments -figure chaos -trials 2 -duration 15s -soak 5s > /dev/null
	@echo "chaossmoke: all chaos cells ran with soak audits"

# scalesmoke is the massive-population gate: one 10^5-node duty-cycled
# trial per width arm on the region-sharded core, with oracle sampling
# (misdelivery / freshness audits) always on — Check() fails the run on
# any violation. The trial runs once sequentially and once on all CPUs;
# stdout must be byte-identical, which is the sharded core's determinism
# contract enforced end to end on every `make check`.
scalesmoke:
	mkdir -p profiles
	$(GO) run ./cmd/retri-experiments -figure massive -nodes 100000 -duration 5s \
		-parallel 1 > profiles/massive_p1.txt
	$(GO) run ./cmd/retri-experiments -figure massive -nodes 100000 -duration 5s \
		-parallel 0 > profiles/massive_p0.txt
	cmp profiles/massive_p1.txt profiles/massive_p0.txt
	@echo "scalesmoke: 100k-node sharded trial byte-stable across -parallel"

# multihopsmoke is the multi-hop regional-dynamics gate: all three arms
# (fixed, adaptive-turnover, dynaddr) on a short trial with the always-on
# oracle audit — any misdelivery or freshness violation on the relayed
# wire fails the run — once sequentially and once on all CPUs, with
# byte-identical stdout as the determinism contract.
multihopsmoke:
	mkdir -p profiles
	$(GO) run ./cmd/retri-experiments -figure multihop -trials 2 -duration 10s \
		-parallel 1 > profiles/multihop_p1.txt
	$(GO) run ./cmd/retri-experiments -figure multihop -trials 2 -duration 10s \
		-parallel 0 > profiles/multihop_p0.txt
	cmp profiles/multihop_p1.txt profiles/multihop_p0.txt
	@echo "multihopsmoke: all arms audited, byte-stable across -parallel"

# loc prints the root module's non-test Go line count: bench/ is its own
# module and .bench_build/ its build output. Each change reports its net
# line delta as this figure on the parent against the change.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
