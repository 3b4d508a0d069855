GO ?= go

# Coverage floors enforced by `make cover` (per-package test coverage; the
# differential and golden oracle suites add cross-package coverage on top).
COVER_FLOOR_ENGINE   ?= 75.0
COVER_FLOOR_SCHEDULE ?= 75.0
COVER_FLOOR_SERVICE  ?= 80.0
COVER_FLOOR_DIFFTEST ?= 80.0

.PHONY: all build test vet api race rowvm-race fleet-race stream-race gen gen-race gen-bce fma-check narrow-race auto-race bench-vet bench-smoke fuzz cover bench bench-kernels serve-smoke serve-http stats clean

all: build test

# `test` is tier 1 and includes the difftest seed corpus (TestSeedCorpus:
# 200 random DAGs through the full schedule/execution knob sweep, which
# covers the row bytecode VM and the concurrent fleet knob), the
# generated-kernel drift check (gen), the kernels' bounds-check pins
# (gen-bce), the no-FMA check (fma-check), the race-checked suites (rowvm-race,
# fleet-race, stream-race, gen-race, narrow-race, auto-race), the
# serving-layer smoke test (serve-smoke), `go vet` and gofmt here (vet),
# the benchmark's own module vetted and run at test size (bench-vet,
# bench-smoke), and the exported-API golden (TestAPIGolden against api.txt).
# Wall-clock numbers are not gated here: they are read from
# `bash bench/run.sh` (BENCHMARK.json; `-compare old.json new.json`).
build:
	$(GO) build ./...

test: vet bench-vet bench-smoke gen gen-bce fma-check rowvm-race fleet-race stream-race gen-race narrow-race auto-race serve-smoke
	$(GO) test ./...

# Race-checked run of the row bytecode VM suite (differential vs the
# reference evaluator, exact on float64 and int64 registers; fusion/regalloc
# shape, every IR form lowered, float32 gate, register gauge, Debug's
# per-row load checks, end-to-end VM-vs-reference pipeline; the one
# dispatch loop's float64, float32 and int64 instantiations, the int64 one
# held to == with float64 over uint8 programs), of the gather/scatter table
# (internal/difftest: gather instruction and row-swept accumulator vs the
# reference, threads 1 and 2, out-of-region faults) and of the
# self-reference/predicate table (a row-at-a-time and a point-at-a-time
# self-referencing stage, predicated pieces, vs the reference under Debug).
rowvm-race:
	$(GO) test -race -run 'TestRowVM|TestVMInt' ./internal/engine/ ./internal/difftest/

# Race-checked saturation stress of the shared-fleet scheduler: concurrent
# same-program runs, multi-program interleaving on shared workers,
# Close-during-Run / Recycle-after-Close lifecycle, service cache eviction
# under concurrent multi-program load, and the request lifecycle Do and
# DoStream share: a lone caller's back-to-back requests finding their
# admission slot free, a run abandoned at its deadline keeping its program
# out of eviction, and the same refusals through both. POLYMAGE_FLEET=4
# forces a multi-worker fleet so the deque/steal/park paths are exercised
# even on single-core CI machines.
fleet-race:
	POLYMAGE_FLEET=4 $(GO) test -race -run TestFleet ./internal/engine/ ./internal/service/ -count=1

# Race-checked run of the streaming / dirty-rectangle suite: frame
# sequences with feedback, partial-recompute correctness against
# whole-frame execution, stream-vs-Close lifecycle, DoStream on the
# service's shared request lifecycle (validation, mid-stream deadline
# abandonment, emit abort and the ndjson serving surface), the difftest
# streaming knobs catching a perturbed kernel (TestStreamKnobsMutationCaught)
# and the public API's golden oracles (TestStreamingHeatOracle,
# TestStreamingBlendDirtyRect): dirty-rectangle frames run the same tile
# loop as every other run.
stream-race:
	POLYMAGE_FLEET=4 $(GO) test -race -run TestStream ./internal/engine/ ./internal/service/ ./internal/difftest/ . -count=1

# `go vet`, plus formatting: any file gofmt would rewrite fails the target
# (bench/ is BENCHMARK.json's and is checked by bench-vet only).
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l $$(find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*'))"; \
	if [ -n "$$out" ]; then echo "gofmt -l is not empty:"; echo "$$out"; exit 1; fi

# bench/ is its own module (BENCHMARK.json runs it), so the root build and
# tests never compile or run it. bench-vet compiles it, so a symbol removed
# from a package it imports shows here; bench-smoke runs its tests (~25 s):
# all five workloads at test size, timed and traced, against a freshly
# built polymage-serve, each checked for correct outputs and for exactly
# the metric names BENCHMARK.json lists. A change that breaks the one
# performance ledger shows here and not when the numbers are next read.
bench-vet:
	cd bench && $(GO) vet ./...

bench-smoke:
	cd bench && $(GO) test ./...

# Verify the checked-in ahead-of-time kernel packages (internal/apps/gen,
# internal/difftest/gencorpus) are byte-identical to what the printer
# (engine.EmitGo) produces today — fails on any drift, so generated kernels
# can never fall out of sync with the row VM's lowering. Kernels are keyed
# by stage-piece shape, not by schedule: regenerate after a deliberate
# change to the printer, to the row VM's lowering, to an app's stage
# definitions or to the inlining decisions, not after a scheduler change:
#   go run ./cmd/polymage-gen
gen:
	$(GO) run ./cmd/polymage-gen -check

# Race-checked run of the generated-kernel suite: piece-key stability,
# registry dispatch/fallback matrix, a printer case for every row-VM opcode,
# golden emitter structure, purity and the typed bodies' text, and the apps/gen parity tests (generated kernels vs
# interpreted tiers on every Table-2 app and both uint8 apps under the hand
# and the auto schedule), plus the generated leg of the hand-written tables
# (kernels for data-dependent and cross-dimension indices, for the
# int64-body forms, for phase loops, for values carried across iterations
# for accumulators and for strided reads run in lanes, vs the VM and the
# reference, a NaN through float32 min, and exp's inline common path and
# its slow path vs the VM and the reference).
gen-race:
	$(GO) test -race -run TestGen ./internal/engine/ ./internal/codegen/ ./internal/apps/gen/ -count=1
	$(GO) test -race -run 'TestGenGatherTable|TestGenIntBodyTable|TestGenPhaseLoops|TestGenCarry|TestGenAccumTable|TestGenStride|TestGenMinMaxNaN|TestGenExp' ./internal/difftest/ -count=1

# Bounds checks the compiler could not eliminate in the checked-in kernels,
# per kernel and in its inner loops, `for i := 0; i < n; i++`, a phase
# loop's `for m := 0; m < cnt; m++`, or a lane loop's `for ; i+4 <= n; i += 4`
# and its remainder `for ; i < n; i++` (the compiler's check_bce report
# joined with the kernel each reported line belongs to). The int64 bodies of
# internal/apps/gen read 0 in the inner loop; float bodies read one per inner
# loop, on the first row read (ROADMAP item 3 a), carried values or not; a
# phase loop keeps one on its store o[D*m] (and one per read stepping by more
# than 1); a lane loop's strided reads index windows at constant offsets and
# keep none (the window cuts are slice checks, printed beside, not pinned),
# its remainder keeps one on orow[i]; a kernel with per-element indexed loads
# (gathers, cross-dimension indices) keeps one per such load and lane by
# design, and an accumulator's one on its scatter od[o]. The target fails
# when a body kind's inner-loop total rises above its pin below (float64,
# float32, int64 bodies per package); lower a pin when a change removes
# checks. `make test` runs it.
BCE_PINS_APPS   = float64=46,float32=33,int64=0
BCE_PINS_CORPUS = float64=59,float32=78,int64=10
gen-bce:
	@for spec in internal/apps/gen:$(BCE_PINS_APPS) internal/difftest/gencorpus:$(BCE_PINS_CORPUS); do \
		d=$${spec%%:*}; \
		echo "$$d/kernels_gen.go"; \
		$(GO) build -gcflags=-d=ssa/check_bce/debug=1 ./$$d/ 2>&1 | awk -v pins=$${spec#*:} -f cmd/polymage-gen/bce.awk $$d/kernels_gen.go - || exit 1; \
	done

# No fused multiply-add where the row VM and the generated kernels must agree
# bit for bit. The Go spec lets a compiler fuse x*y + z into one rounding,
# even across statements, unless an explicit conversion rounds the product;
# amd64 never fuses, arm64 (like ppc64le, s390x and riscv64) does. So the VM
# and EmitGo round every product with a conversion, and this target
# cross-compiles the engine and both kernel packages for arm64 and fails on
# any FMADD/FMSUB/FNMADD/FNMSUB the compiler emitted, in them, in
# internal/numeric (whose Exp every tier computes exp with) and in
# internal/expr (the reference's arithmetic). Exp is the repository's own
# for the same reason: math.Exp is assembly on amd64 and arm64, fused where
# the CPU can, so the target also fails on any math.Exp call in non-test Go
# of the engine, expr and both kernel packages. It needs only the installed
# toolchain.
FMA_PKGS = ./internal/engine ./internal/apps/gen ./internal/difftest/gencorpus ./internal/numeric ./internal/expr
EXP_DIRS = internal/engine internal/expr internal/apps/gen internal/difftest/gencorpus
fma-check:
	@out="$$(GOARCH=arm64 $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1)" || { echo "$$out" | tail -20; exit 1; }; \
	if ! echo "$$out" | grep -q ' STEXT '; then echo "fma-check: no assembly listing"; exit 1; fi; \
	fused="$$(echo "$$out" | grep -E '\b(FMADD|FMSUB|FNMADD|FNMSUB)[SD]\b')"; \
	if [ -n "$$fused" ]; then echo "fused multiply-adds on arm64:"; echo "$$fused"; exit 1; fi; \
	calls="$$(grep -n 'math\.Exp(' $$(find $(EXP_DIRS) -maxdepth 1 -name '*.go' -not -name '*_test.go'))"; \
	if [ -n "$$calls" ]; then echo "math.Exp calls (use numeric.Exp):"; echo "$$calls"; exit 1; fi; \
	echo "fma-check: no fused multiply-add in $(FMA_PKGS) on arm64, no math.Exp call in $(EXP_DIRS)"

# Race-checked run of the narrow-type suite: uint8/uint16 end-to-end
# execution and input validation, interval/cast soundness, the row VM's
# int64 opcodes, the narrow golden-oracle apps, the uint8 apps on generated
# kernels vs the row VM on int64 registers vs the reference
# (TestGenNarrowAppsMatchVM), and
# a short slice of the integer differential corpus under the narrow knob
# sweep, narrow-gen included (the full corpus runs race-free in
# `go test ./...`).
narrow-race:
	$(GO) test -race -short -run 'TestNarrow|TestInteger|TestIvCast|TestVMInt|TestElemFor|TestGenNarrow' ./internal/engine/ ./internal/apps/... ./internal/difftest/ -count=1

# Race-checked run of the auto-scheduler suite: cost-model term pinning
# against executor observability counters, beam-search determinism and
# never-worse-than-greedy, the core inlining axis, and the serving-layer
# auto path (cache-key distinctness, end-to-end request).
auto-race:
	POLYMAGE_FLEET=4 $(GO) test -race -short -run 'TestAuto' ./internal/schedule/ ./internal/core/ ./internal/service/ -count=1

# In-process end-to-end gate for the HTTP serving layer: cold/warm/
# overload/oversized requests plus /healthz, /metrics and the snapshot
# stream against a live server (see internal/service/smoke_test.go).
serve-smoke:
	$(GO) test ./internal/service/ -run 'TestServeSmoke' -count=1

# Regenerate the exported-API listing and fail on drift against the
# committed api.txt. To accept a deliberate API change:
#   go run ./cmd/polymage-api > api.txt
api:
	@$(GO) run ./cmd/polymage-api > /tmp/polymage-api.txt
	@diff -u api.txt /tmp/polymage-api.txt && echo "api.txt up to date"

# Race-checked run of the execution engine and the serving layer:
# concurrent Program.Run stress (TestConcurrentRun), executor lifecycle
# races (TestConcurrentRunRecycleClose), fleet scheduler stress
# (TestFleet*), concurrent cold-cache compiles / warm hits / shutdown
# against the HTTP service (TestConcurrentColdWarmShutdown), and concurrent
# pixel-carrying /run requests through the split-everything direct codec
# (TestPixelsConcurrent, TestStreamPixels). CI should run this target. POLYMAGE_FLEET=4 keeps the scheduler multi-worker on
# single-core machines.
race:
	POLYMAGE_FLEET=4 $(GO) test -race ./internal/engine/... ./internal/service/...

# Short coverage-guided differential fuzzing budget; use
# `go test -fuzz=FuzzDiff -fuzztime=10m ./internal/difftest` (or
# cmd/polymage-difftest -duration) for real soaks. The two service targets
# hold the /run pixel codec to encoding/json: arbitrary bodies must decode
# to the same request or the same refusal, finite float32 bit patterns must
# print to the same bytes. Their seed corpora run in tier-1 `go test`.
fuzz:
	$(GO) test -fuzz=FuzzDiff -fuzztime=20s ./internal/difftest
	$(GO) test -run '^$$' -fuzz=FuzzRunRequestDecode -fuzztime=10s ./internal/service
	$(GO) test -run '^$$' -fuzz=FuzzDataEncode -fuzztime=10s ./internal/service

# Per-package coverage with checked-in floors for the packages most
# exposed to silent miscompiles (engine, schedule), the serving surface
# and the differential oracle itself.
cover:
	@$(GO) test -cover ./internal/engine/ ./internal/schedule/ ./internal/service/ ./internal/difftest/ | tee /tmp/polymage-cover.txt
	@awk -v floor=$(COVER_FLOOR_ENGINE) '/internal\/engine/ { for (i=1;i<=NF;i++) if ($$i ~ /%/) { sub("%","",$$i); if ($$i+0 < floor) { printf "FAIL: internal/engine coverage %s%% below floor %s%%\n", $$i, floor; exit 1 } } }' /tmp/polymage-cover.txt
	@awk -v floor=$(COVER_FLOOR_SCHEDULE) '/internal\/schedule/ { for (i=1;i<=NF;i++) if ($$i ~ /%/) { sub("%","",$$i); if ($$i+0 < floor) { printf "FAIL: internal/schedule coverage %s%% below floor %s%%\n", $$i, floor; exit 1 } } }' /tmp/polymage-cover.txt
	@awk -v floor=$(COVER_FLOOR_SERVICE) '/internal\/service/ { for (i=1;i<=NF;i++) if ($$i ~ /%/) { sub("%","",$$i); if ($$i+0 < floor) { printf "FAIL: internal/service coverage %s%% below floor %s%%\n", $$i, floor; exit 1 } } }' /tmp/polymage-cover.txt
	@awk -v floor=$(COVER_FLOOR_DIFFTEST) '/internal\/difftest/ { for (i=1;i<=NF;i++) if ($$i ~ /%/) { sub("%","",$$i); if ($$i+0 < floor) { printf "FAIL: internal/difftest coverage %s%% below floor %s%%\n", $$i, floor; exit 1 } } }' /tmp/polymage-cover.txt
	@echo "coverage floors met (engine >= $(COVER_FLOOR_ENGINE)%, schedule >= $(COVER_FLOOR_SCHEDULE)%, service >= $(COVER_FLOOR_SERVICE)%, difftest >= $(COVER_FLOOR_DIFFTEST)%)"

# Paper tables/figures benchmarks (scaled down; POLYMAGE_BENCH_SCALE=1 for
# paper-sized inputs).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# Engine microbenchmarks: stencils, combinations and non-stencil programs
# (deep trees in float64 and float32, selects, a uint8 box sum on int64
# registers) on the row VM, accumulators and the repeated-Run steady state of
# the persistent executor; then the micro benchmarks that time the generated
# tier: BenchmarkGather (two data-dependent stages), BenchmarkUpsample (four up-sampling and demosaic stages
# whose kernels run as phase loops), BenchmarkDownsample (four
# down-sampling stages whose kernels read at stride 2 in four lanes),
# BenchmarkBoxSum (harris's box sums, whose kernels carry values across
# iterations), BenchmarkAccumulate (bilateral's grid accumulators) and
# BenchmarkRemap (local Laplacian's remap0, one exp per point, printed
# inline), each on the generated and VM tiers.
bench-kernels:
	$(GO) test -bench 'BenchmarkStencil|BenchmarkCombination|BenchmarkAccumulator|BenchmarkRowEval|BenchmarkRepeatedRun' -benchmem -run '^$$' ./internal/engine/
	$(GO) test -bench 'BenchmarkGather|BenchmarkUpsample|BenchmarkDownsample|BenchmarkBoxSum|BenchmarkAccumulate|BenchmarkRemap' -benchmem -run '^$$' ./internal/apps/gen/

# Run the pipeline-as-a-service HTTP server (POST /run, GET /healthz,
# GET /metrics, GET /apps).
serve-http:
	$(GO) run ./cmd/polymage-serve -addr :8080

# Per-stage observability sweep over every benchmark app (executor metrics
# on: kernel time, tiles, measured recomputation vs the model's estimate).
stats:
	$(GO) run ./cmd/polymage-bench -stats

clean:
	$(GO) clean ./...
