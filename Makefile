# netalignmc build and reproduction targets.

GO ?= go

.PHONY: all build test race bench bench-go cover vet faults chaos fuzz examples reproduce serve smoke cluster-smoke clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection and resilience suite under the race detector:
# worker panics, cancellation, NaN injection at every solver step,
# malformed inputs.
faults:
	$(GO) test -race -run Fault ./...

# I/O chaos harness + self-healing lifecycle suite: one-shot and
# persistent injected faults (EIO/ENOSPC/short write) at every
# registered fault point, retry/quarantine/requeue arcs, the stall
# watchdog, and pressure-driven load shedding — under the race
# detector with real parallelism.
chaos:
	GOMAXPROCS=4 $(GO) test -race -run 'TestChaos|TestRetry|TestQuarantine|TestCrashLoop|TestWatchProgress|TestStall|TestPressure|TestCheckpointFault' ./internal/server/ ./internal/faults/

# Brief fuzzing of the three file-format readers, of the exact
# matching kernel against its frozen reference, and of every reusable
# matcher against its plain Matcher (the seed corpora also run as part
# of every plain `make test`).
fuzz:
	$(GO) test -fuzz=FuzzReadSMAT -fuzztime=10s ./internal/problemio/
	$(GO) test -fuzz=FuzzReadMTX -fuzztime=10s ./internal/problemio/
	$(GO) test -fuzz=FuzzReadCheckpoint -fuzztime=10s ./internal/problemio/
	$(GO) test -run '^$$' -fuzz='^FuzzExactMatchesReference$$' -fuzztime=10s ./internal/matching/
	$(GO) test -run '^$$' -fuzz='^FuzzSubsetMatchesReference$$' -fuzztime=10s ./internal/matching/
	$(GO) test -run '^$$' -fuzz='^FuzzReusableMatchesMatcher$$' -fuzztime=10s ./internal/matching/

# Perf harness: measure the fig. 2 configurations with cmd/benchalign
# and append machine-readable runs to BENCH_dev.json (see scripts/bench.sh
# for the LABEL/THREADS/ITERS/CHECK knobs).
bench:
	./scripts/bench.sh

# Go microbenchmarks (testing.B) across all packages.
bench-go:
	$(GO) test -bench=. -benchmem ./...

cover:
	$(GO) test -cover ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/subgraph
	$(GO) run ./examples/ppi
	$(GO) run ./examples/ontology
	$(GO) run ./examples/steering
	$(GO) run ./examples/matchers

# Run the alignment job service locally (spool in ./netalignd-spool).
serve:
	$(GO) run ./cmd/netalignd -addr :7070 -spool netalignd-spool

# End-to-end daemon smoke test: submit, poll, kill -9 mid-job, verify
# resume-on-restart. Needs curl and python3.
smoke:
	./scripts/ci_smoke.sh

# End-to-end cluster smoke test: router + 2 backends, cache affinity on
# the owner, kill the owner and verify ring failover. Needs curl and
# python3.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Regenerate the full experiment report (results/report.md).
reproduce:
	mkdir -p results
	$(GO) run ./cmd/experiments -scale 0.02 -iters 30 -report results/report.md

clean:
	$(GO) clean ./...
