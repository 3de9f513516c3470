#!/bin/sh
# check.sh — the tier-2 correctness gate: build, vet, the MITS
# static-analysis suite, and the full test suite under the race
# detector. CI and pre-merge runs should call this; one failure is a
# bug, not noise (see EXPERIMENTS.md "Deterministic invariants").
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# One payload codec: the courseware-database path, the cluster router
# and span export encode through internal/wire, so gob must not creep
# back into their non-test code.
echo "==> no encoding/gob in non-test internal/transport, internal/cluster, internal/obs"
gob=$(go list -f '{{$d := .Dir}}{{range .Imports}}{{if eq . "encoding/gob"}}{{$d}}{{"\n"}}{{end}}{{end}}' \
	./internal/transport/... ./internal/cluster/... ./internal/obs/...)
if [ -n "$gob" ]; then
	echo "FAIL: encoding/gob imported by non-test code in: $gob" >&2
	exit 1
fi

echo "==> go run ./cmd/mitslint -ci -baseline lint.baseline.json ./..."
go run ./cmd/mitslint -ci -baseline lint.baseline.json ./...

echo "==> go test -race ./..."
go test -race ./...

# Fuzz smoke: each decoder fuzzer runs briefly so a regression that
# only hostile input reaches fails the gate, not a user. The checked-in
# seed corpora already replayed in the test run above; this explores
# beyond them. Sequential: go fuzzing owns all CPUs per target.
for target in \
	FuzzFrameDecode:./internal/transport/ \
	FuzzContentChunkDecode:./internal/transport/ \
	FuzzDBCodec:./internal/transport/ \
	FuzzAAL5Reassemble:./internal/atm/ \
	FuzzMHEGDecode:./internal/mheg/codec/ \
	FuzzMarkupParse:./internal/markup/ \
	FuzzWireDecode:./internal/obs/collect/ ; do
	fuzz=${target%%:*}
	pkg=${target#*:}
	echo "==> go test -fuzz=$fuzz -fuzztime=10s $pkg"
	go test -fuzz="$fuzz" -fuzztime=10s "$pkg"
done

# Observability gate: the obs and collector packages under the race
# detector, the two-leg smoke (traced-RPC stats scrape, then the
# three-node trace pipeline checked over the collector's HTTP views),
# the E30 cross-site trace experiment (critical path localizes an
# injected store stall), and the overhead benchmarks written to
# BENCH_obs.json (export overhead must stay under 5%).
echo "==> go test -race ./internal/obs/..."
go test -race ./internal/obs/...

echo "==> go run ./cmd/obssmoke"
go run ./cmd/obssmoke

echo "==> go test -race -run 'TestAllExperimentsPassShapeChecks/E30' -v ./internal/experiments/"
go test -race -run 'TestAllExperimentsPassShapeChecks/E30' -v ./internal/experiments/

echo "==> scripts/bench_obs.sh"
./scripts/bench_obs.sh

# Chaos gate: the E28 fault matrix re-run under the race detector (it
# already ran once inside `go test -race ./...` above; the explicit -v
# run makes the per-scenario recovery table visible in CI logs), then
# the fault-recovery latency benchmark writing BENCH_faults.json.
echo "==> go test -race -run 'TestAllExperimentsPassShapeChecks/E28' -v ./internal/experiments/"
go test -race -run 'TestAllExperimentsPassShapeChecks/E28' -v ./internal/experiments/

echo "==> scripts/bench_faults.sh"
./scripts/bench_faults.sh

# Pipelining gate: the 64-caller multiplexed-client stress test under
# the race detector (it already ran once inside `go test -race ./...`;
# the explicit run keeps the gate obvious when someone trims the full
# suite), then the E29 throughput benchmark writing BENCH_pipeline.json
# (8-caller speedup vs the serialized baseline, cache hit vs miss).
echo "==> go test -race -run 'TestPipelineStress64|TestCloseDrainsPendingExactlyOnce' -v ./internal/transport/"
go test -race -run 'TestPipelineStress64|TestCloseDrainsPendingExactlyOnce' -v ./internal/transport/

echo "==> scripts/bench_pipeline.sh"
./scripts/bench_pipeline.sh

# Saturation gate: the E32 hardware-limited transport benchmark (no
# modeled store latency — gob vs binary-streaming codec, 1-conn vs
# pooled, cache-hit allocs, interactive p99 under an 8 MB transfer)
# merged into BENCH_pipeline.json. The script fails unless the pooled
# streaming path beats the single-connection seed baseline by 2x, the
# cached-hit call path is allocation-free, and chunking keeps
# interactive tail latency bounded (within 2x idle, or >= 5x better
# than a monolithic transfer on CPU-starved hosts). Runs after
# bench_pipeline.sh: E29 rewrites the JSON, E32 merges into it.
echo "==> scripts/bench_saturation.sh"
./scripts/bench_saturation.sh

# Cluster gate: the E31 chaos experiment (replica kill, shard
# partition, heal-while-streaming against the sharded replicated
# MEDIASTORE) re-run under the race detector with the per-scenario
# table visible, then the availability/latency benchmark writing
# BENCH_cluster.json — the script fails if either acceptance bit
# (100% availability with one replica down per shard, degraded p99
# within 3x healthy) is false.
echo "==> go test -race -run 'TestAllExperimentsPassShapeChecks/E31' -v ./internal/experiments/"
go test -race -run 'TestAllExperimentsPassShapeChecks/E31' -v ./internal/experiments/

echo "==> scripts/bench_cluster.sh"
./scripts/bench_cluster.sh

# Race-stress gate: the transport pipelining, cache singleflight and
# cluster failover suites repeated 5× under the race detector (make
# racestress). The concurrency analyzers (chanwait, atomicmix,
# poolcheck, deadlinecheck) verify the protocol shapes statically;
# this leg exercises the interleavings they cannot see.
echo "==> make racestress"
make racestress

echo "==> all checks passed"
