GO ?= go

.PHONY: all build vet lint test benchtest examples fuzz race bench faults torture wtrace fleetd-smoke fleetd-bigsmoke check

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The project's own analyzers (DESIGN.md §10, §15): the five determinism
# and safety invariants (wall-clock time and host state, global math/rand,
# unsorted map emission, float accumulation in merge paths, discarded
# NAND/FTL errors) and the fleetd blocking-under-a-held-lock check (copied
# locks are `make vet`'s copylocks).
# Builds cmd/flashvet and runs the suite over the whole
# module; exits non-zero on any finding or unused ignore directive. The
# waiver audit then re-lists every ignore directive and ops-domain opt-out
# and diffs it against the committed baseline, so a new waiver is a
# reviewed diff of lint_waivers.txt, never a silent addition. Last, the
# mutation table proves every pass still fires: each one must report its
# own one-line break of a copy of the real tree, and nothing else.
lint:
	@mkdir -p bin
	$(GO) build -o bin/flashvet ./cmd/flashvet
	./bin/flashvet ./...
	./bin/flashvet -waivers ./... >bin/lint_waivers.txt
	diff -u lint_waivers.txt bin/lint_waivers.txt
	$(GO) test -count=1 -run 'TestEachPassCatchesARealMutation|TestRealTreeClean' ./internal/analysis

test:
	$(GO) test ./...

# The benchmark's own tests. bench/ is a module of its own, so `./...`
# never reaches it, yet it links against fleet.Run, Spec.Sample,
# Params.ProfileIndex and fleetd's manager, aggregate, series and ledger:
# an API slip in the tree must fail here, not in the benchmark pipeline.
benchtest:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Run every example end to end (about 22 s on two cores, most of it
# appzoo and fleet): `go build` only proves they compile, this proves they
# still finish. Output is discarded; a non-zero exit fails the target.
examples:
	@for e in examples/*/; do \
		echo "go run ./$$e"; \
		$(GO) run ./$$e >/dev/null || exit 1; \
	done

# Native fuzz smoke (DESIGN.md §15): the two fault-plan grammars and the
# checkpoint cell decoder, each seeded from its committed corpus
# (testdata/fuzz/) and run briefly under coverage guidance. The pinned
# properties live in the Fuzz* doc comments: parsers never panic, accept
# only what Validate accepts, and are deterministic; the cell decoder
# never panics, never trusts a lying length field, and maps every failure
# to the three-way checkpoint error policy. -run=NONE skips the unit
# tests, so this stacks on `test` without re-running them.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParsePlan -fuzztime=10s ./internal/faultinject/
	$(GO) test -run=NONE -fuzz=FuzzParsePlan -fuzztime=10s ./internal/hostio/
	$(GO) test -run=NONE -fuzz=FuzzCellDecode -fuzztime=15s ./internal/fleetd/

# A short -race pass over the concurrent subsystems: the fleet
# determinism tests run the same 64-device population at 4 workers and at
# 1 and require byte-identical aggregates — including the merged wear
# ledger (DESIGN.md §6, §9; per-device tracers share nothing) — and the
# Progress callback the workers call concurrently; and the NAND
# snapshot's shared page payloads, with two chips running from one state
# while erases recycle every page buffer no snapshot holds; and a payload
# a read lent, held while GC and drains recycle other blocks' buffers.
race:
	$(GO) test -race -count=1 -run 'TestSnapshotSharesWriteOncePages|TestSnapshotMissesRecycledBuffers|TestSnapshotKeepsNoMetadataState' ./internal/nand/
	$(GO) test -race -count=1 -run TestLentPayloadSurvivesOtherBlocks ./internal/ftl/
	$(GO) test -race -count=1 -run TestFleet ./internal/fleet/
	$(GO) test -race -count=1 -run TestConcurrentSpans ./internal/runtrace/
	$(GO) test -race -count=1 -run 'TestCampaignInMemory|TestServerAPI|TestResumeAfterTruncatedCell' ./internal/fleetd/

# The fault matrix under -race: randomized power-cut/remount recovery,
# program/erase-failure handling, graceful EOL, the faulty-flash crash
# suites for both file systems, the fleet's fault-plan/panic paths, and
# fleetd's panicking-device containment (DESIGN.md §8).
faults:
	$(GO) test -race -count=1 \
		-run 'TestRecover|TestProgramFailures|TestGraceful|TestBrickAtEOL|TestEOLSpare|TestQuickRemount|TestCrashConformanceOnFaultyFlash|TestFleetFaultPlan|TestFleetPanic|TestCampaignPanic|TestInjector' \
		./internal/ftl/ ./internal/faultinject/ ./internal/fleet/ ./internal/fleetd/ \
		./internal/fs/extfs/ ./internal/fs/f2fs/

# The host-fault torture matrix under -race (DESIGN.md §13): campaigns
# over a fault-injecting filesystem (ENOSPC, EIO, torn writes, rename
# failures — against checkpoint cells and the event journal), interrupted
# and re-adopted mid-run, must produce results byte-identical to a clean
# run; plus the HTTP plane's failure behavior (idempotent retries, client
# backoff/timeouts, SSE release on shutdown). The verbose log lands in
# torture-out/ (CI uploads it alongside the smoke run's journals).
torture:
	rm -rf torture-out && mkdir -p torture-out
	$(GO) test -race -short -count=1 -v \
		-run 'TestTorture|TestIdempotent|TestClient|TestWatchEndsOnShutdown' \
		./internal/fleetd/ >torture-out/torture.log 2>&1 \
		|| { tail -40 torture-out/torture.log; exit 1; }
	@tail -1 torture-out/torture.log

# One pass over BenchmarkExhibit (every entry of experiments.Exhibits at
# its pinned config, headlines as custom metrics) and
# BenchmarkTelemetryOverhead; -benchtime=1x keeps it a smoke run. Speed is
# measured by the benchmark in bench/ (BENCHMARK.json), not here.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem .

# End-to-end wear-attribution smoke (DESIGN.md §9): run the CLIs with
# tracing on, then validate every artifact with wtracecheck — the ledger's
# decomposition identities and the Chrome trace's well-formedness — and
# require the fleet ledger to be byte-identical across worker counts.
# Artifacts land in wtrace-out/ (CI uploads them).
wtrace:
	rm -rf wtrace-out && mkdir -p wtrace-out
	$(GO) build -o wtrace-out/ ./cmd/flashsim ./cmd/fleetsim ./cmd/wtracecheck
	./wtrace-out/flashsim run -device "eMMC 8GB" -scale 2048 -gib 0.2 -fill 0.3 \
		-wear-ledger wtrace-out/flashsim-ledger.csv -wear-trace wtrace-out/flashsim-trace.json >/dev/null
	./wtrace-out/fleetsim -devices 12 -days 2 -scale 16384 -seed 7 -quiet -workers 1 \
		-wear-trace wtrace-out/fleet-ledger-w1.csv >/dev/null
	./wtrace-out/fleetsim -devices 12 -days 2 -scale 16384 -seed 7 -quiet -workers 4 \
		-wear-trace wtrace-out/fleet-ledger-w4.csv >/dev/null
	cmp wtrace-out/fleet-ledger-w1.csv wtrace-out/fleet-ledger-w4.csv
	./wtrace-out/wtracecheck -ledger wtrace-out/flashsim-ledger.csv -trace wtrace-out/flashsim-trace.json
	./wtrace-out/wtracecheck -ledger wtrace-out/fleet-ledger-w1.csv

# fleetd end-to-end smoke (DESIGN.md §11, §12): start the campaign
# service, submit a checkpointed campaign, kill -9 the server mid-run,
# restart, resume, and require the final series/ledger/result — and the
# sim-domain journal events — byte-identical to an uninterrupted run,
# with the event journal contiguously sequenced across the kill and
# /metrics serving the ops families. Runs in a mktemp -d scratch dir;
# set FLEETD_SMOKE_ARTIFACTS to keep the fetched artifacts (CI does).
fleetd-smoke:
	./scripts/fleetd_smoke.sh

# Opt-in scale check (not part of check): a large sharded campaign
# through the service path, for watching steady-state memory stay
# O(workers) while the population grows. Tune FLEETD_BIG_* to taste.
fleetd-bigsmoke:
	rm -rf fleetd-big-out && mkdir -p fleetd-big-out
	$(GO) build -o fleetd-big-out/fleetsim ./cmd/fleetsim
	./fleetd-big-out/fleetsim -devices $${FLEETD_BIG_DEVICES:-2000} \
		-days $${FLEETD_BIG_DAYS:-30} -scale 65536 -seed 42 -quiet \
		-shards 8 -checkpoint fleetd-big-out/data -checkpoint-every 5 \
		-metrics-csv fleetd-big-out/series.csv

# The verification entrypoint: everything CI (or a reviewer) should run.
check: vet lint build test benchtest examples fuzz race faults torture wtrace fleetd-smoke
