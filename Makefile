# Tier-1 gate: must stay green at every commit.
.PHONY: build test
build:
	go build ./...
test: build
	go test ./...

# Tier-2 gate: build + vet + mitslint + race detector (scripts/check.sh).
.PHONY: check
check:
	./scripts/check.sh

# The project static-analysis suite on its own (gate mode: stale
# baseline entries are hard errors, same as CI).
.PHONY: lint
lint:
	go run ./cmd/mitslint -ci ./...

# The decoder fuzzers, 10s each (sequential: fuzzing owns all CPUs).
.PHONY: fuzz
fuzz:
	go test -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/transport/
	go test -fuzz=FuzzContentChunkDecode -fuzztime=10s ./internal/transport/
	go test -fuzz=FuzzDBCodec -fuzztime=10s ./internal/transport/
	go test -fuzz=FuzzAAL5Reassemble -fuzztime=10s ./internal/atm/
	go test -fuzz=FuzzMHEGDecode -fuzztime=10s ./internal/mheg/codec/
	go test -fuzz=FuzzMarkupParse -fuzztime=10s ./internal/markup/
	go test -fuzz=FuzzWireDecode -fuzztime=10s ./internal/obs/collect/

# The experiment benchmarks (E1–E24 plus the E27 obs baseline).
.PHONY: bench
bench:
	go test -bench=. -benchmem .

# Chaos gate: the E28 fault matrix (injected loss, stalls, corruption,
# truncation, flaky accepts, partition-heal, ATM drops, starved
# streams) under the race detector, plus the fault-recovery latency
# benchmark (scripts/bench_faults.sh writes BENCH_faults.json).
.PHONY: chaos
chaos:
	go test -race -run 'TestAllExperimentsPassShapeChecks/E28' -v ./internal/experiments/
	./scripts/bench_faults.sh

# Pipelining gate: the multiplexed-client stress + Close-drain tests
# under the race detector, plus the E29 throughput/cache benchmark
# (scripts/bench_pipeline.sh writes BENCH_pipeline.json).
.PHONY: pipeline
pipeline:
	go test -race -run 'TestPipelineStress64|TestCloseDrainsPendingExactlyOnce' -v ./internal/transport/
	./scripts/bench_pipeline.sh

# Saturation gate: the per-stripe failure-isolation test under the
# race detector, then the E32 hardware-limited transport benchmark
# (scripts/bench_saturation.sh merges saturation rows into
# BENCH_pipeline.json and fails unless the pooled streaming path is
# 2x the single-connection seed baseline, cache hits are
# allocation-free, and chunked 8 MB transfers keep interactive p99
# bounded).
.PHONY: saturation
saturation:
	go test -race -run 'TestPoolStripeFailureIsolation|TestPoolStripesRoundRobin|TestPoolAllStripesDead' -v ./internal/transport/
	./scripts/bench_saturation.sh

# Cluster gate: the E31 chaos experiment (replica kill, shard
# partition, heal-while-streaming against the sharded replicated
# store) under the race detector, plus the availability/latency
# benchmark (scripts/bench_cluster.sh writes BENCH_cluster.json and
# fails if either acceptance bit — 100% availability with one replica
# down per shard, degraded p99 within 3× healthy — is false).
.PHONY: cluster
cluster:
	go test -race -run 'TestAllExperimentsPassShapeChecks/E31' -v ./internal/experiments/
	./scripts/bench_cluster.sh

# Race-stress gate: the concurrency-protocol suites that guard the
# multiplexed hot path — transport pipelining (out-of-order completion,
# conn-death drain, blocked-enqueue release, abandoned frames), the
# cache singleflight, and the cluster failover ladder (replica death
# mid-stream vs the replication appliers) — repeated 5× under the race
# detector so scheduling-dependent interleavings get real coverage, not
# one lucky pass. chanwait/atomicmix/poolcheck/deadlinecheck prove the
# protocol shapes statically; this leg hammers the shapes they cannot
# see.
.PHONY: racestress
racestress:
	go test -race -count=5 -run 'TestPipelineStress64|TestCloseDrainsPendingExactlyOnce|TestEnqueueBlockedCallersReleasedOnConnDeath|TestWriteLoopSkipsAbandonedFrames|TestConnDeathFailsAllInFlight|TestCallTimeoutKeepsConnection|TestPoolStripeFailureIsolation' ./internal/transport/
	go test -race -count=5 -run 'TestSingleflight|TestFillErrorNotCached|TestConcurrentMixedKeys' ./internal/cache/
	go test -race -count=5 -run 'TestReplicaFailoverMidStream|TestReadFailoverReplicaDown|TestReplicationHealsAfterPartition' ./internal/cluster/

# Flake hunt: repeated runs that expose scheduling-dependent failures
# on a small host — the transport package 10 times, the whole tree 4
# times (packages run in parallel, so every test also runs under load).
.PHONY: flakehunt
flakehunt:
	go test -count=10 ./internal/transport/
	go test -count=4 ./...

# Tracked surface figures of the two core packages and the payload
# codec: non-test lines of Go and exported declarations (funcs, methods
# and types, as go doc lists them), plus the span-export codec file.
.PHONY: surface
surface:
	@for p in internal/transport internal/cluster internal/wire; do \
		lines=$$(cat $$(ls $$p/*.go | grep -v '_test\.go$$') | wc -l); \
		decls=$$(go doc -all ./$$p | grep -cE '^func |^    func |^type '); \
		echo "$$p: $$lines non-test lines, $$decls exported declarations"; \
	done
	@echo "internal/obs/collect/wire.go: $$(wc -l < internal/obs/collect/wire.go) lines"

# Observability checks alone: obs + collector + transport tests under
# the race detector, the two-leg smoke (traced-RPC scrape + three-node
# trace pipeline over the collector's HTTP views), the E30 cross-site
# trace experiment, and the overhead benchmarks (scripts/bench_obs.sh
# writes BENCH_obs.json: traced-RPC latency, export overhead at 8
# callers — acceptance <5% — and collector assembly throughput).
.PHONY: obs
obs:
	go test -race ./internal/obs/... ./internal/transport/
	go run ./cmd/obssmoke
	go test -race -run 'TestAllExperimentsPassShapeChecks/E30' -v ./internal/experiments/
	./scripts/bench_obs.sh
