#!/bin/sh
# CI gate: static checks, full build, the complete test suite under the
# race detector, dedicated crash-consistency and WAL kill-every-point
# smokes, a race-enabled sustained-write soak, a bench smoke that
# emits and shape-checks the BENCH_ingest.json perf-trajectory artifact,
# a build of the benchmark with its tiny-size tests,
# a live dedupd debug-endpoint smoke (/metrics.json, /healthz,
# /events.json, pprof), a gateway loopback smoke plus a live dedup-gw
# admin-endpoint smoke, the cluster fault-matrix short preset, 30-second
# cluster churn soaks (one plain, one with a shard hard-killed mid-run
# at R=2) under the race detector, and short fuzz smokes of the decoder
# surfaces. This is the command the concurrency and
# robustness work is held to — `go test -race` covers the 8-goroutine
# ingest stress test, the striped index and LRU hammer tests, the pipeline
# shutdown/leak tests, and the kill-point persistence tests.
#
# Usage: ./ci.sh
set -eu

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
# The experiment suite (internal/exp) takes ~1 minute plain; under the race
# detector on a small machine it can exceed go test's default 10-minute
# per-package timeout, so raise it.
go test -race -timeout 45m ./...

echo "== crash-consistency smoke (10 seeds, race) =="
# Kill SaveDir at a random injection point per seed (payloads torn half the
# time), then demand recovery mounts exactly the old or the new store —
# never a hybrid — and passes fsck. -short runs 10 seeds; the full suite
# above already ran 100.
go test -race -short -count=1 -run 'TestCrashConsistency' ./internal/store

echo "== WAL crash smoke (kill-every-point, race) =="
# Kill the durable store at every log-append, group-commit and compaction
# injection point (torn final frames half the time), plus inside Recover
# itself over a table of debris layouts, and demand the remount equal some
# acknowledged prefix of the mutation history — never a hybrid. -short
# runs one seed; the full suite above already ran the 100+-run matrix.
go test -race -short -count=1 \
    -run 'TestWALKillEveryPoint|TestRecoverIdempotentDebris' ./internal/simdisk

echo "== loopback server integration smoke (race) =="
# The wire-service acceptance gate: a near-duplicate second backup must
# move <15% of its raw bytes over loopback and restore bit-identically
# through the verifying path, and a connection killed mid-ingest must
# resume into a store object-identical to an uninterrupted run's and to
# a local PutFile of the same bytes (every chunker, MHD and SI-MHD).
# The server ingests the client's cuts, so hostile chunk sizes must be
# refused, and the engine feed must tear down cleanly on Close, resume
# expiry and engine disk errors.
go test -race -count=1 \
    -run 'TestLoopbackBackupAndVerifiedRestore|TestSecondGenerationMovesFewBytes|TestKillConnectionResumeStoreEquality|TestDrainWaitsForInFlightSession|TestServerCheckpointSurvivesKill|TestOverloadShedding|TestWireStoreMatchesLocalPutFile|TestHostileCutsRefused|TestNewRefusesUnnegotiableChunker|TestFeedTeardown' \
    ./internal/server

echo "== gateway loopback smoke (race) =="
# The cluster acceptance gate: a 2-shard cluster behind the gateway must
# restore bit-identically to a single node, chunk routing must keep a
# cross-shard re-ingest under 15% of its bytes on the client link, a
# mid-run shard drain must stay fully restorable with the newest bytes,
# a killed client connection must resume through the gateway, and tenant
# auth/isolation/quota must hold. Every shard's store must be object-
# identical to a local PutFile of the files it holds at R=1 and R=2, and
# hostile chunk sizes must come back through the gateway as integrity
# errors.
go test -race -count=1 \
    -run 'TestClusterRoundTripMatchesSingleNode|TestClusterChunkRoutingSavesClientBandwidth|TestClusterDrainMidRun|TestClusterKillConnectionResume|TestClusterTenants|TestClusterStoreMatchesLocalPutFile|TestClusterHostileCutsRefused' \
    ./internal/cluster

echo "== cluster fault matrix (short preset, race) =="
# The replication acceptance gate: {kill shard mid-ingest, kill shard
# mid-restore, drain+rebalance under live traffic, kill gateway and
# reattach, corrupt a replica on disk}, each cell gated on bit-identical
# verified restores of every acked file and a full replication factor
# after repair. -short runs every cell at R=2 seed=1; the full suite
# above already ran the R=1..3 x seeds matrix.
go test -race -short -count=1 -run 'TestClusterFaultMatrix' ./internal/cluster

echo "== cluster churn soak (30s, race) =="
# In-process shards + gateway hammered by concurrent tenants: ingest,
# restore-and-verify, injected connection deaths, quota sheds and a
# mid-run shard drain. Gated on zero corruption and a bounded heap.
go run -race ./cmd/soak -short

echo "== cluster kill-shard soak (30s, race, R=2) =="
# The same churn with one shard hard-killed mid-run: with 2-way
# replication every file acked before or after the kill must still
# verify bit-identical, and a post-churn repair scan must restore the
# full replication factor. Gated on zero corruption.
go run -race ./cmd/soak -short -replication 2 -kill-shard

echo "== sustained-write soak (race) =="
# Concurrent ingest + verified restores against a live durable store while
# group commits, background compaction and online scrub churn underneath,
# then a reopen verifying every acked file bit-exact.
go test -race -count=1 -run 'TestSustainedWriteSoak' ./internal/server

echo "== bench smoke (perf-trajectory artifact) =="
# A small seeded ingest+restore run must emit a BENCH_ingest.json with
# the expected document shape: throughput, per-file latency percentiles,
# the per-stage latency split and the engine's DER numbers.
go run ./cmd/bench -out /tmp/BENCH_ingest.ci.json \
    -restore-out /tmp/BENCH_restore.ci.json -restore-workers 8 \
    -machines 2 -days 2 -snapshot $((1<<20)) -edits 4
for key in '"mb_per_s"' '"per_file_ms"' '"stage_latency_ms"' \
    '"core.chunk_ns"' '"store.container_write_ns"' '"real_der"' '"p99_ms"'; do
    grep -q "$key" /tmp/BENCH_ingest.ci.json || {
        echo "bench smoke: $key missing from BENCH_ingest.json" >&2; exit 1; }
done
# The chunking stage is a differential gate like the restore stage: the
# block-processed fast chunkers must emit the exact cut sequence of the
# per-byte reference scans (bench exits non-zero on divergence; the grep
# double-checks the emitted document says so).
for key in '"chunk_mb_per_s"' '"cuts_identical": true'; do
    grep -q "$key" /tmp/BENCH_ingest.ci.json || {
        echo "bench smoke: $key missing from BENCH_ingest.json" >&2; exit 1; }
done
# The WAL stage gates log-enabled ingest: a group commit per file, then a
# reopen that replays the whole log and restores every file against the
# ingested hash (bench exits non-zero on divergence or an empty replay).
for key in '"wal_mb_per_s"' '"group_commits"' '"replayed_records"' \
    '"commit_latency_ms"' '"hash_match": true'; do
    grep -q "$key" /tmp/BENCH_ingest.ci.json || {
        echo "bench smoke: $key missing from BENCH_ingest.json" >&2; exit 1; }
done
# The cluster stage pushes the same workload through a gateway + 3
# dedupd shards over loopback and restores it back through the gateway
# (bench exits non-zero if the round-trip hash diverges). The
# replication sub-stage re-runs it at R=2, rebalances one shard away,
# kills another, and restores everything through what is left (bench
# exits non-zero if the failover restore hash diverges; the grep
# double-checks the emitted document says so).
for key in '"cluster_mb_per_s"' '"shard_balance"' '"balance_ratio"' \
    '"chunks_peer_routed"' '"replication_overhead_ratio"' \
    '"rebalanced_files"' '"failover_restore_ok": true'; do
    grep -q "$key" /tmp/BENCH_ingest.ci.json || {
        echo "bench smoke: $key missing from BENCH_ingest.json" >&2; exit 1; }
done
# The restore stage is a differential gate, not just a perf artifact: the
# parallel pipeline's combined output hash must equal the serial reference
# path's (bench exits non-zero on mismatch; the grep double-checks the
# emitted document says so).
for key in '"hash_match": true' '"coalesce_ratio"' '"read_latency_ms"' \
    '"speedup"' '"serial_sha1"' '"parallel_sha1"'; do
    grep -q "$key" /tmp/BENCH_restore.ci.json || {
        echo "bench smoke: $key missing from BENCH_restore.json" >&2; exit 1; }
done
# The ranged stage is a second differential gate: the same byte ranges are
# restored from flat manifests and again after the store's recipes are
# rewritten as recipe trees, and the output streams must hash identically
# (bench exits non-zero on mismatch or if a second near-identical
# snapshot's tree stores >=20% of its leaf bytes as new chunks).
for key in '"ranged_hash_match": true' '"ranged_seek_ms"' '"flat_seek_ms"' \
    '"recipe_tree_dedup_ratio"' '"recipe_reads_per_seek"' \
    '"second_snapshot_new_leaf_fraction"'; do
    grep -q "$key" /tmp/BENCH_restore.ci.json || {
        echo "bench smoke: $key missing from BENCH_restore.json" >&2; exit 1; }
done
rm -f /tmp/BENCH_ingest.ci.json /tmp/BENCH_restore.ci.json

echo "== benchmark build and tiny-size tests =="
# perfbench is its own module over this one (replace mhdedup => ../), so
# the go test ./... above does not build it. Its tests run every
# workload at a tiny size, so a core/server API change that breaks the
# benchmark fails here.
(cd perfbench && go vet . && go test -count=1 .)

echo "== dedupd debug endpoint smoke =="
# The server must serve /healthz, a histogram-bearing /metrics.json, the
# event ring and pprof while running, and drain cleanly on SIGTERM.
go build -o /tmp/dedupd.ci ./cmd/dedupd
/tmp/dedupd.ci -addr 127.0.0.1:7471 -metrics-addr 127.0.0.1:7472 &
DEDUPD_PID=$!
trap 'kill "$DEDUPD_PID" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -fsS http://127.0.0.1:7472/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS http://127.0.0.1:7472/healthz | grep -q ok
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"histograms"'
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"server.apply_ns"'
curl -fsS http://127.0.0.1:7472/events.json | grep -q '"events"'
curl -fsS http://127.0.0.1:7472/debug/pprof/cmdline >/dev/null
kill -TERM "$DEDUPD_PID"
wait "$DEDUPD_PID"
trap - EXIT
rm -f /tmp/dedupd.ci

echo "== dedup-gw admin endpoint smoke =="
# The gateway must serve /healthz, a shard-balance-bearing /metrics.json
# and the drain-shard / rebalance-shard / repair-scan / replication
# admin verbs in front of live shards, and drain cleanly on SIGTERM.
go build -o /tmp/dedupd.ci ./cmd/dedupd
go build -o /tmp/dedup-gw.ci ./cmd/dedup-gw
/tmp/dedupd.ci -addr 127.0.0.1:7473 &
SHARD0_PID=$!
/tmp/dedupd.ci -addr 127.0.0.1:7476 &
SHARD1_PID=$!
/tmp/dedup-gw.ci -addr 127.0.0.1:7474 -metrics-addr 127.0.0.1:7475 \
    -shards s0=127.0.0.1:7473,s1=127.0.0.1:7476 &
GW_PID=$!
trap 'kill "$SHARD0_PID" "$SHARD1_PID" "$GW_PID" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -fsS http://127.0.0.1:7475/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS http://127.0.0.1:7475/healthz | grep -q ok
curl -fsS http://127.0.0.1:7475/metrics.json | grep -q '"shards"'
curl -fsS http://127.0.0.1:7475/events.json | grep -q '"events"'
curl -fsS http://127.0.0.1:7475/replication | grep -q '"fully_replicated"'
curl -fsS -X POST http://127.0.0.1:7475/repair-scan | grep -q '"repaired"'
curl -fsS -X POST 'http://127.0.0.1:7475/rebalance-shard?id=s1' | grep -q '"dropped"'
curl -fsS -X POST 'http://127.0.0.1:7475/drain-shard?id=s1' | grep -q draining
# Draining an unknown shard must be refused.
if curl -fsS -X POST 'http://127.0.0.1:7475/drain-shard?id=nope' >/dev/null 2>&1; then
    echo "dedup-gw smoke: draining an unknown shard succeeded" >&2; exit 1
fi
# Rebalancing an unknown shard must be refused too.
if curl -fsS -X POST 'http://127.0.0.1:7475/rebalance-shard?id=nope' >/dev/null 2>&1; then
    echo "dedup-gw smoke: rebalancing an unknown shard succeeded" >&2; exit 1
fi
kill -TERM "$GW_PID"
wait "$GW_PID"
kill -TERM "$SHARD0_PID" "$SHARD1_PID"
wait "$SHARD0_PID" "$SHARD1_PID"
trap - EXIT
rm -f /tmp/dedupd.ci /tmp/dedup-gw.ci

echo "== fuzz smokes (5s each) =="
# Each target runs alone: `go test -fuzz` accepts only one matching fuzz
# target per invocation.
go test -run '^$' -fuzz 'FuzzEncodeDecodeName' -fuzztime 5s ./internal/simdisk
go test -run '^$' -fuzz 'FuzzDecodeManifest$' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz 'FuzzDecodeFileManifest' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz 'FuzzDecompressRecipe' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz 'FuzzWireDecode$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz 'FuzzWireReplicaDecode' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz 'FuzzChunkerParity' -fuzztime 5s ./internal/chunker

echo "CI OK"
