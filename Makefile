GO ?= go

.PHONY: help check vet build test race invariants bench bench-engine bench-bign bench-scaling bench-compare serve-smoke full-suite cover trace-artifact

help: ## list targets
	@grep -E '^[a-z-]+:.*##' $(MAKEFILE_LIST) | awk -F':.*## ' '{printf "  %-12s %s\n", $$1, $$2}'

check: vet build test race invariants ## tier-1 gate: everything that must stay green

vet: ## static analysis
	$(GO) vet ./...

build: ## compile every package and command
	$(GO) build ./...

test: ## full unit/property/integration suite
	$(GO) test ./...

race: ## race detector over the concurrent packages (suite-determinism tests run the quick suite repeatedly, so allow beyond go test's 10m default)
	$(GO) test -race -timeout 30m ./internal/core ./internal/sim ./internal/exp

invariants: ## recompute the discordance engine's whole set from scratch after every update (measured 1067 s on a 2-vCPU host, 1043 s of it in TestBlockTopoHashedRegular: past go test's 10m default, so allow 30m)
	$(GO) test -tags divtestinvariants -timeout 30m ./internal/core

cover: ## coverage profile + HTML report (cover.out, cover.html)
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -html=cover.out -o cover.html
	$(GO) tool cover -func=cover.out | tail -1

trace-artifact: ## regenerate results/observability.txt (traced dissenter run)
	./scripts/trace_artifact.sh

bench: ## every experiment as a testing.B benchmark, one iteration each
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

bench-engine: ## regenerate the fast-engine speedup table (results/fast_engine.txt) and the perf matrix incl. the E2 block-size sweep B∈{1,4,8,16} (BENCH_engine.json)
	$(GO) run ./cmd/divbench -exp E20 -full
	$(GO) run ./cmd/divbench -bench-json BENCH_engine.json -full

bench-bign: ## regenerate the 'bign' section of BENCH_engine.json: million-vertex E2-style runs on an implicit circulant with compact byte slabs vs the materialized-CSR int32 baseline (n=10⁶ pair + n=10⁷ implicit arm), with ns/step, build time, and per-phase peak RSS
	$(GO) run ./cmd/divbench -bench-bign BENCH_engine.json -full

bench-scaling: ## regenerate BENCH_engine.json with the multicore 'scaling' section: quick suite at widths {1,2,4,all} (GOMAXPROCS matched) + the CSR blocked-kernel block sweep B∈{1,2,4,8}
	$(GO) run ./cmd/divbench -bench-json BENCH_engine.json -full -widths 1,2,4,0

bench-build: ## regenerate the 'build' section of BENCH_engine.json: seeded parallel graph construction (gnp + randomRegular at n=10⁵,10⁶,10⁷) vs the frozen seed []Edge path, with per-phase nanos, edges/s, peak RSS, and the byte-identity + speedup + RSS gates
	$(GO) run ./cmd/divbench -bench-build BENCH_engine.json -full

bench-compare: ## measure a fresh full perf matrix and gate it against the checked-in BENCH_engine.json (exit 1 on >10% regressions; noise-prone on shared hardware, informative in CI)
	$(GO) run ./cmd/divbench -bench-json /tmp/BENCH_new.json -full
	$(GO) run ./cmd/divbench -compare BENCH_engine.json /tmp/BENCH_new.json

serve-smoke: ## run the quick suite under -serve and assert the live /metrics, /progress, /snapshot.json surface
	./scripts/serve_smoke.sh

full-suite: ## publication-size experiment suite (minutes)
	$(GO) run ./cmd/divbench -full
