# Developer and CI entry points. `make ci` is the gate every PR must pass;
# `make bench` maintains the benchmark-regression ledger (BENCH_<n>.json).

GO ?= go

# The PR-numbered benchmark ledger this change-set writes into, and the
# label its numbers land under. A perf PR records its baseline first:
#   make bench BENCH_OUT=BENCH_2.json BENCH_LABEL=before   # on the parent commit
#   make bench BENCH_OUT=BENCH_2.json BENCH_LABEL=after    # on the PR head
BENCH_OUT   ?= BENCH_10.json
BENCH_LABEL ?= after

# The regression suite: the hot-path micro-benchmarks plus the two macro
# benchmarks that exercise the whole stack, the observability
# overhead pairs (disabled must track BenchmarkEndToEndMCCK; instrumented
# documents the cost of full instrumentation),
# and the negotiation sweep (queue depths, the 10k-machine/100k-job
# scale anchor, and the saturated deep queues).
BENCH_RE = ^(BenchmarkKnapsack2D|BenchmarkClassAdMatch|BenchmarkSimEngine|BenchmarkEndToEndMCCK|BenchmarkTable2Makespan|BenchmarkObsOverhead|BenchmarkNegotiate|BenchmarkInsertPending)$$

# The chaos gate's sweep width: seeds per (policy, profile) cell. The full
# acceptance sweep is 50; CI runs a shorter one under -race to keep the gate
# fast. Override with `make chaos CHAOS_SEEDS=50`. CHAOS_DIFF_SEEDS sizes the
# reference-diff sweep (each of its cells runs twice, once on the dense
# reference solver, so it is narrower).
CHAOS_SEEDS ?= 15
CHAOS_DIFF_SEEDS ?= 10

.PHONY: build vet lint lint-self test race bench benchgate chaos fuzz experiments experiments-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# philint (cmd/philint + internal/analysis) enforces the determinism
# contract at the source level: the per-file rules (no math/rand outside
# internal/rng, no wall-clock reads, no order-sensitive map iteration in
# sim-path packages, no float equality in value comparisons, no
# tie-producing sort.Slice in scheduling paths) plus the whole-program
# rules over the type-checked module (dettaint: banned sources reachable
# from sim-path entries through any call chain; pureselect: classad.Match
# and Policy Select/SelectN implementations are observably pure; deadapi:
# every exported internal/ identifier has a non-test reference somewhere
# in the module). Legitimate sites
# carry a per-line `//philint:ignore <rule> <reason>` annotation — for a
# transitive finding, at the offending site or at the sim-path entry.
# Every rule reads one go/types check of the module, so the gate is one
# analyzer run (~2 s cold); `go run ./cmd/philint -json ./...` gives the
# same findings machine-readably. The load covers examples/ too: the demos
# obey every rule, and their calls keep the API they use alive. gofmt
# cleanliness over the whole tree rides along.
lint:
	$(GO) run ./cmd/philint ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi

# The analyzer is not above its own law: lint-self reports philint findings
# whose primary or entry position lies in internal/analysis (whole-program
# rules still see the full module).
lint-self:
	$(GO) run ./cmd/philint ./internal/analysis

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The worker counts the big-cell scaling sweep records. Each count lands
# under its own ledger label ($(BENCH_LABEL)-bigcell-cpuN), because benchjson
# collapses repeated names to per-metric minima and would otherwise fold the
# sweep into one number.
BENCH_CPUS ?= 1 2 4

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_RE)' -benchmem -count 1 . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT) -label $(BENCH_LABEL)
	for n in $(BENCH_CPUS); do \
		$(GO) test -run '^$$' -bench '^BenchmarkBigCell$$' -benchmem -benchtime 1x -cpu $$n . \
			| $(GO) run ./cmd/benchjson -o $(BENCH_OUT) -label $(BENCH_LABEL)-bigcell-cpu$$n \
			|| exit 1; \
	done
	$(GO) test -run '^$$' -bench '^BenchmarkMillionJob$$' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT) -label $(BENCH_LABEL)-millionjob

# The obs pair-gate ceiling: how far an X/instrumented leg may run over its
# X/disabled twin. benchjson's own default is 15%, which is the envelope the
# pipeline holds when the collector's GC work runs concurrently with the
# simulation (any multi-core host). CI for this repo runs on a single-CPU
# container where every GC cycle of the retained trace (~7k events, ~1.6 MB
# per end-to-end run) serializes into the measured time — the measured
# floor there is ~+30%, with paired minima observed as high as +56% when
# the gate runs right after the race and chaos legs —
# so the gate allows headroom above that floor here; the instrumented
# legs' allocs/op in the ledger (~+7k over disabled, down from ~+19k
# before the arena pipeline) are the noise-free record of the actual
# per-event cost.
OBS_TOLERANCE ?= 0.60

# The streaming-residency gate leg re-runs BenchmarkMillionJob's 100k cell
# (single -benchtime 1x shots, best of 3) against the ledger's
# after-millionjob label. Its real fence is peak-heap-B — the emit-and-drop
# engine's live-heap high-water mark, which forced-GC sampling keeps stable
# to a few percent, so a slide back toward O(total jobs) residency (10×+)
# trips it immediately. The wider tolerance exists for the leg's ns/op,
# which single-shot runs on a busy one-CPU host can wobble.
STREAM_TOLERANCE ?= 0.25

# Benchmark regression fence: re-measure the end-to-end macro benchmark and
# the observability overhead pairs, and fail if (a) ns/op or allocs/op
# regressed more than 10% against the checked-in ledger's "after" label, or
# (b) any X/instrumented leg runs more than OBS_TOLERANCE over its
# X/disabled twin (the obs pair-gate). The obs pairs' ns/op is fenced only
# by (b) — within one sweep, where host drift cancels — while their
# allocs/op (exact, host-independent) stays under the ledger gate.
# -count 5 lets the gates take per-metric minima (and the pair-gate its
# best paired ratio), which damps host noise without loosening the
# tolerance.
benchgate:
	$(GO) test -run '^$$' -bench '^(BenchmarkEndToEndMCCK|BenchmarkObsOverhead)$$' -benchmem -count 5 . \
		| $(GO) run ./cmd/benchjson -gate $(BENCH_OUT) -gate-label after -obs-tolerance $(OBS_TOLERANCE)
	$(GO) test -run '^$$' -bench '^BenchmarkMillionJob$$/^jobs=100000$$' -benchmem -benchtime 1x -count 3 . \
		| $(GO) run ./cmd/benchjson -gate $(BENCH_OUT) -gate-label after-millionjob -tolerance $(STREAM_TOLERANCE)

# Fault-injection invariant swarm (see internal/faults): CHAOS_SEEDS seeds ×
# {MC, MCC, MCCK} × {light, heavy} under the invariant checker and the race
# detector. A failure prints a reproducible (seed, profile, policy) triple.
# STREAM_CHAOS_SEEDS sizes the streaming leg: every one of its faulted
# diurnal cells runs twice (checked retained, then emit-and-drop streaming)
# and the online aggregates must match bit for bit.
STREAM_CHAOS_SEEDS ?= 10

chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) CHAOS_DIFF_SEEDS=$(CHAOS_DIFF_SEEDS) \
		STREAM_CHAOS_SEEDS=$(STREAM_CHAOS_SEEDS) \
		$(GO) test -race -count 1 \
		-run '^TestInvariantSwarm$$|^TestChaosDiffSwarm$$|^TestStreamChaosSwarm$$' ./internal/experiments

# Fuzz targets: the classad parser/matcher robustness contracts, the
# constant-Requirements fold's differential check against classad.Match,
# the slot-backed ad's differential check against a map-backed model,
# the obs JSON encoder's differential check against encoding/json, and the
# job-set decoder behind phisched -input (errors, never panics; a decoded
# set round-trips through StreamWriter). Plain `go test`
# replays only their seed corpora (testdata/fuzz/); this leg mutates past
# them for FUZZTIME per target. A failing input is saved under the
# package's testdata/fuzz/<target>/ as a regression seed.
FUZZTIME ?= 5s
FUZZ_TARGETS = ./internal/classad:FuzzParse ./internal/classad:FuzzMatch \
	./internal/classad:FuzzTargetFreeFold ./internal/classad:FuzzAdOps \
	./internal/obs:FuzzAppendJSONString ./internal/obs:FuzzEventAppendJSON \
	./internal/job:FuzzReadJSON

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

# The paper artifacts report_full.txt and results_full.json are build
# outputs: phibench at the paper's parameters (seed 42, ~10 s). `make
# experiments` regenerates them in place; `make experiments-check`
# regenerates both into a temporary directory and fails if either differs
# from the committed copy, so a change that moves any table or figure must
# commit the regenerated artifacts with it.
experiments:
	$(GO) run ./cmd/phibench -seed 42 -o report_full.txt -json results_full.json > /dev/null

experiments-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/phibench -seed 42 -o "$$tmp/report_full.txt" -json "$$tmp/results_full.json" > /dev/null && \
	cmp "$$tmp/report_full.txt" report_full.txt && \
	cmp "$$tmp/results_full.json" results_full.json

ci: vet build lint race chaos fuzz experiments-check benchgate
