#!/usr/bin/env bash
# Tier-1 verification: formatting, vet, build, full test suite, and the
# race detector over the packages that run real goroutines. CI and
# pre-commit both run this (or `make verify`).
set -euo pipefail
cd "$(dirname "$0")"

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
# The sim kernel hosts processes on real goroutines; everything above it is
# cooperative, but the handoff protocol itself must stay race-clean.
go test -race ./internal/sim/
# The experiment scheduler fans whole simulations across host goroutines, so
# the scheduler, the harness that feeds it, the workloads' shared caches, and
# the CLI run under the race detector too (short mode keeps it a smoke test).
go test -race -short ./internal/expsched/ ./internal/harness/ ./internal/workloads/ ./cmd/dsmtxbench/
# Fault plans are compiled once and then read concurrently by every rank of
# every parallel point, so the injector must stay race-clean.
go test -race ./internal/faults/
# The job engine multiplexes concurrent submissions over shared admission
# state, a singleflight table, and warm pools; its storm test and the
# dsmtxd/dsmtxload serving-path tests run under the race detector.
go test -race ./internal/engine/ ./cmd/dsmtxd/ ./cmd/dsmtxload/
# The host backend runs the whole DSMTX protocol on live goroutines; the
# platform tests and the backend-equivalence tests (vtime and host must both
# reproduce the sequential checksum with equal committed counts) are the
# data-race audit of the runtime itself. The platform sweep includes the net
# package (mesh, reconnect replay, generation buffering) and the delivery
# conformance suite run against both host and net mailboxes.
go test -race ./internal/platform/... ./cmd/dsmtxrun/
# The netrun coordinator and daemons run in-process here: one loopback
# fleet serves 50 successive crc32 jobs (half with misspeculation), each
# under a deadline, so a job-teardown race shows as a failure, not a hang,
# and a logged connection retry fails the run. Another fleet runs crc32
# with an input fill that trips if a shadow Setup replay calls it.
go test -race ./internal/netrun/
# Backend equivalence covers vtime, host, and net: the Net tests re-exec
# the (race-instrumented) test binary as a two-daemon loopback fleet, so
# real multi-process TCP runs of crc32/blackscholes/164.gzip must reach the
# sequential checksum with committed/misspec counts equal to vtime.
go test -race ./internal/workloads/ -run TestBackendEquivalence
# The wire codec feeds the net transport; a short fuzz pass keeps the frame
# decoder total on junk (round-trip identity is seeded in the corpus).
go test -run=NONE -fuzz FuzzWireRoundTrip -fuzztime 10s ./internal/wire/
# The sharded commit pipeline adds AnySource control mailboxes and the
# cross-shard vote protocol to the live-goroutine surface; its dedicated
# tests run under the race detector too.
go test -race ./internal/core/ -run TestCrossShard
# The lock-free mailbox rings and the sharded page service behave differently
# under different scheduler pressure: GOMAXPROCS=2 forces heavy contention and
# parking (producers outnumber cores), GOMAXPROCS=8 maximises true parallelism.
# Pinning both in CI surfaces interleaving-dependent bugs here rather than on a
# loaded box. The backend-equivalence pattern includes the CommitShards
# sweep and the 16-rank misspeculating runs (crc32 under TLS, 256.bzip2), and
# the core cross-shard tests ride along at both widths. So do the early-squash
# tests: no MTX past a flagged misspeculation starts in its epoch, workers
# stopped at the doom horizon leave on done when the flag lies past the loop
# exit, and a warm system does not inherit a horizon.
GOMAXPROCS=2 go test -race -count=1 ./internal/workloads/ ./internal/core/ -run 'TestBackendEquivalence|TestCrossShard|TestSquash'
GOMAXPROCS=8 go test -race -count=1 ./internal/workloads/ ./internal/core/ -run 'TestBackendEquivalence|TestCrossShard|TestSquash'
# Proc.Wait is the one park mechanism of the live backends: its conformance
# stress races every send against the waiter arming to park, so a lost
# wakeup shows as a deadline failure. Pin it at both widths too (the vtime
# run checks the same contract on the simulator).
GOMAXPROCS=2 go test -race -count=1 ./internal/platform/... -run TestWaitConformance
GOMAXPROCS=8 go test -race -count=1 ./internal/platform/... -run TestWaitConformance
# Setup loads job input through SeqCtx.LoadInput, which fans pure fills over
# min(GOMAXPROCS, chunks) goroutines and serializes their stores into one
# image. The committed image right after Setup must stay byte-identical to
# the pinned hashes at any width (1 = no helper goroutines), rng.fill must
# match the old generator, and a shadow Setup replay must fill nothing while
# allocating exactly what the real Setup does.
for procs in 1 2 8; do
    GOMAXPROCS=$procs go test -race -count=1 ./internal/core/ ./internal/workloads/ \
        -run 'TestLoadInput|TestShadowSetup|TestSetupInputByteIdentity|TestRNGFillMatchesBytes|TestGzipInputMemoBounded'
done
echo "verify: OK"
