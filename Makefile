GO ?= go

.PHONY: all build test race vet fmt metriclint apicheck fuzz cover check bench gobench benchdiff

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The determinism contract requires race-detector cleanliness: parallel
# experiment cells must share no mutable state. go test runs every table at
# full scale on an 8-worker pool inside cmd/autarky-bench's TestGoldens,
# which diffs each against its committed golden (testdata/*.golden,
# testdata/goldens.sum); the raised timeout covers that package, which the
# race detector slows past go test's 600s default. Regenerate the goldens
# after an intentional model change with
#   go test ./cmd/autarky-bench -run TestGoldens -update
race:
	$(GO) test -race -timeout 1800s ./...

vet:
	$(GO) vet ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# bench regenerates the paper's evaluation tables as a machine-readable
# report, stamped with today's date (see README, "Benchmark reports").
bench: build
	$(GO) run ./cmd/autarky-bench -format json -wall > BENCH_$$(date +%Y-%m-%d).json
	@echo "wrote BENCH_$$(date +%Y-%m-%d).json"

# benchdiff regenerates the report and compares each experiment's total
# simulated cycles against the newest committed BENCH_*.json baseline; any
# experiment growing past 10% fails. It also prints the host wall-clock
# delta when both reports carry a wall_nanos stamp — informational only,
# never a failure (wall time measures the simulator, not the model).
#
# Baseline refresh workflow: after an INTENTIONAL model change (new costs,
# new experiment, changed workload), run `make bench` and commit the new
# date-stamped BENCH_*.json alongside the change; benchdiff always picks
# the lexicographically newest file. Never refresh to paper over an
# unexplained cycle regression — deterministic cycles only move when the
# model does.
benchdiff: build
	$(GO) run ./cmd/autarky-bench -format json -wall > /tmp/bench_current.json
	$(GO) run ./tools/benchdiff /tmp/bench_current.json

# gobench runs the Go micro-benchmarks (the old `make bench`): the
# evaluation-table benchmarks in the root package plus the hot-path
# micro-benchmarks (sealing, the plain store's evict/fetch cycle, the
# rate-limited fault round trip, TLB-hit translation, cycle charging, one
# served request, one latency sample). The
# hot paths must report 0 allocs/op; the matching *ZeroAlloc tests gate
# that in `make test`, so a regression fails CI rather than a bench diff.
gobench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/core ./internal/libos ./internal/metrics ./internal/pagestore ./internal/service ./internal/sgx ./internal/sim

# metriclint rejects wall-clock and process-PRNG imports in the packages
# whose behavior must be a pure function of the simulated clock and their
# seeds (see DESIGN.md, Observability).
metriclint:
	$(GO) run ./tools/metriclint

# apicheck verifies the committed public-API snapshot (testdata/
# api_surface.txt) still matches the code; regenerate with
#   go test -run TestPublicAPISurfaceGolden -update .
apicheck:
	$(GO) test -run TestPublicAPISurfaceGolden .

# fuzz gives the adversarial decode paths a quick shake: sealed-blob
# authentication (pagestore), the one sealed-state decoder behind checkpoint
# restore and migration adoption (libos), and the service channel's
# wire-frame decoder (service). Run with a longer -fuzztime locally when
# touching any of them.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzUnseal -fuzztime=10s ./internal/pagestore
	$(GO) test -run='^$$' -fuzz=FuzzRestore -fuzztime=10s ./internal/libos
	$(GO) test -run='^$$' -fuzz=FuzzMigrate -fuzztime=10s ./internal/libos
	$(GO) test -run='^$$' -fuzz=FuzzFrame -fuzztime=10s ./internal/service

# cover enforces the committed per-package statement-coverage floors
# (testdata/coverage_floors.txt). Raise a floor when tests improve; never
# lower one to get a change in.
cover:
	@fail=0; while read -r pkg floor; do \
		[ -z "$$pkg" ] && continue; \
		pct=$$($(GO) test -cover ./$$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage output for $$pkg"; fail=1; continue; fi; \
		if awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit !(p>=f)}'; then \
			echo "cover: $$pkg $$pct% >= $$floor%"; \
		else \
			echo "cover: $$pkg at $$pct%, below the committed floor $$floor%"; fail=1; \
		fi; \
	done < testdata/coverage_floors.txt; exit $$fail

# check is the CI gate: formatting, static analysis, attribution lint,
# API-surface freshness, build, the full test suite under the race
# detector (every experiment table against its golden included), the
# coverage floors, and a short fuzz pass.
check: fmt vet metriclint apicheck build race cover fuzz
	@echo "all checks passed"
