#!/usr/bin/env bash
# Tier-1 verification: formatting, vet (./... spans the library, commands
# and examples), build, tests (including the method-registry Validate
# tables, the Evaluate equivalence suite and the <1µs dispatch-overhead
# gate), race passes over the job manager, the cluster coordinator (against
# real internal/server peers), the HTTP handlers of internal/server (through
# cmd/svserver's job, dataset, replay, cluster and shard tests, and the one
# that finds a synchronous /value job's result gone while its repeat still
# hits the result cache) and the context-cancellation paths, ten race passes over the dataset registry and
# index store (one file store under both: its pin, reclaim and rename
# interleavings), a race pass over
# the vec and kheap kernels, ten race passes over the streaming distance
# scan and the execution engine (each splits a large batch's scan or
# reduce over several goroutines) and ten over the LSH index (its build
# hashes tables on several goroutines), the benchmark's own self-test (so an
# internal API change that breaks the benchmark's build fails here), a
# GOAMD64=v3 cross-build of the assembly, a 386 run of the internal/vec
# tests and an arm64 cross-vet of internal/vec (its portable stand-ins in
# dot_noasm.go, which no amd64 build compiles), a check of its arm64 code
# for fused multiply-adds (there must be none: a fused op rounds
# differently from the amd64 kernels), fuzz smoke
# runs over the decode/storage/shard-codec surfaces (the index store's
# container header included), the distance sort
# (the []int ordering and the packed ranking against a stable comparison
# sort) and the LSH group query (FuzzQueryGroup: groups of one to eight
# queries against the map-based reference tables, bit for bit), a serving
# benchmark
# of the upload-once/value-many registry path, a method-discovery
# end-to-end run (a real svserver answering "svcli methods"), a run of
# every examples/ program (each must exit zero; examples/streaming ends in
# a bit-identity check against a from-scratch valuation), a
# multi-process cluster end-to-end run (three workers + coordinator,
# by-ref exact and truncated scatter-gather bit-identical to in-process,
# /cluster/statz and every node's /metrics scraped for the scatter and
# shard counters with no family typed twice, one worker SIGKILLed mid-job,
# SIGTERM drain), a crash-durability end-to-end run (svserver
# SIGKILLed once GET /jobs/{id} shows the job running with work left,
# restarted on the same data dir; the write-ahead job
# journal must replay the job under its original ID with a bit-identical
# result), an incremental-delta end-to-end run (upload, value, append rows
# via PUT /datasets/{id}/delta, re-value; append again to the child and
# value the grandchild exact and truncated, so the rank cache replays an
# overlay patched on top of an overlay; every result bit-identical to
# from-scratch with /metrics proving both O(ΔN) patches ran and three
# rankings promoted out of the rank cache's probation segment by reuse: the
# parent and the child as patch parents, the grandchild by its truncated
# replay), a planner/index-store
# end-to-end run (algo=auto picks truncated cold, an explicit kd index
# build job persists a .knnsi artifact, the restarted server recovers it,
# auto flips to kd with /metrics proving the reload, and the dataset
# delete cascades onto the artifact), and a short svbench smoke (to
# $BENCH_SMOKE, default /tmp/BENCH_9.json) diffed against the committed
# BENCH_9.json baseline — records that got more than 4x slower fail the
# run.
# Run from anywhere; operates on the repo root. CI
# (.github/workflows/ci.yml) runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
# The hand-written kernels must assemble and pass under the highest
# microarchitecture level too (VEX availability differs; the runtime AVX
# dispatch must not depend on GOAMD64).
GOAMD64=v3 go build ./...
# amd64 builds compile the shared Go trees of dot_kernels.go but not the
# portable stand-ins of dot_noasm.go (the Go dot1x64, the no-op sweep and
# four-lane stubs): run the vec tests on them as 386, which an x86-64 host
# executes, and vet them for arm64. Only internal/vec: the rest of the
# module does not build for 32-bit targets (size checks against 1<<31 in
# the dataset and cluster codecs overflow int).
GOARCH=386 go test ./internal/vec
GOARCH=arm64 go vet ./internal/vec
# Every portable helper rounds each product on its own (float64(a*b)), so
# the arm64 compiler must emit no FMADD/FMSUB/FNMADD/FNMSUB (S or D) for
# internal/vec. The listing must name vec.Dot, so that an empty one fails.
arm64asm=$(GOARCH=arm64 go build -gcflags=-S ./internal/vec 2>&1)
if ! grep -q 'vec\.Dot STEXT' <<<"$arm64asm"; then
    echo "arm64 listing of internal/vec lacks vec.Dot:" >&2
    head -n 20 <<<"$arm64asm" >&2
    exit 1
fi
if grep -E '\bFN?M(ADD|SUB)[SD]\b' <<<"$arm64asm" >&2; then
    echo "internal/vec compiles to fused multiply-adds on arm64 (above)" >&2
    exit 1
fi
go test ./...
go test -race ./internal/vec ./internal/kheap
go test -race -count=10 ./internal/knn ./internal/core
go test -race -count=10 ./internal/lsh
go test -race ./internal/jobs
go test -race ./internal/journal
go test -race -count=10 ./internal/registry
go test -race ./internal/cluster
go test -race ./internal/planner
go test -run TestCancel -race ./...
go test -run 'TestJob|TestStatz|TestDataset|TestValueByRef|TestValueRef|TestQueuedCancel|TestMethods|TestReplay|TestCluster|TestShard|TestSyncValue' -race ./cmd/svserver
go test -run 'TestEvaluate|TestParams' -race .
# perfbench is its own module (go test ./... above skips it); its tiny
# workloads compile and run every internal API the benchmark calls.
(cd perfbench && go test ./...)

# Fuzz smoke: ten seconds per decode/storage surface and per sort entry
# point, and for the LSH group query. New crashers land in testdata/fuzz/
# and fail the run.
go test -run '^$' -fuzz FuzzFlatRoundTrip -fuzztime 10s ./internal/dataset
go test -run '^$' -fuzz FuzzBinaryCodec -fuzztime 10s ./internal/dataset
go test -run '^$' -fuzz FuzzDecodeValueRequest -fuzztime 10s ./cmd/svserver
go test -run '^$' -fuzz FuzzDecodeDeltaRequest -fuzztime 10s ./cmd/svserver
go test -run '^$' -fuzz FuzzShardReportCodec -fuzztime 10s ./internal/cluster
go test -run '^$' -fuzz FuzzShardRequestJSON -fuzztime 10s ./internal/cluster
go test -run '^$' -fuzz FuzzJournalDecode -fuzztime 10s ./internal/journal
go test -run '^$' -fuzz FuzzReadIndex -fuzztime 10s ./internal/kdtree
go test -run '^$' -fuzz 'FuzzArgsortDist$' -fuzztime 10s ./internal/vec
go test -run '^$' -fuzz FuzzPackedArgsortDist -fuzztime 10s ./internal/vec
go test -run '^$' -fuzz FuzzReadIndex -fuzztime 10s ./internal/lsh
go test -run '^$' -fuzz FuzzQueryGroup -fuzztime 10s ./internal/lsh
go test -run '^$' -fuzz FuzzIndexContainer -fuzztime 10s ./internal/registry

# Serving smoke: the upload-once/value-many comparison through the real
# HTTP handlers (inline re-ships and re-fingerprints the payload each call;
# by-ref resolves two registry IDs).
go test -run '^$' -bench 'BenchmarkValue' -benchtime 3x ./cmd/svserver

# Method discovery end-to-end: a real svserver process on an ephemeral
# port, interrogated by "svcli methods" — the declarative surface a client
# sees, checked for every built-in algorithm. The same server then stores a
# datagen-written binary classification set and a regression set, and must
# serve each back byte for byte, so the KNNS decode, the registry's file and
# the encode are checked across real processes.
bindir=$(mktemp -d)
logfile="$bindir/svserver.log"
mkdir -p "$bindir/data"
go build -o "$bindir" ./cmd/svserver ./cmd/svcli ./cmd/datagen
"$bindir/svserver" -addr 127.0.0.1:0 -data-dir "$bindir/data" >"$logfile" 2>&1 &
svpid=$!
cleanup() { kill "$svpid" 2>/dev/null || true; rm -rf "$bindir"; }
trap cleanup EXIT
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*svserver listening on \(.*\)$/\1/p' "$logfile" | head -n1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "svserver did not start:" >&2
    cat "$logfile" >&2
    exit 1
fi
methods_out=$("$bindir/svcli" methods -server "http://$addr")
for name in exact truncated montecarlo baseline sellers sellersmc composite lsh kd utility auto; do
    # Herestring, not a pipe: grep -q exiting on an early match would
    # SIGPIPE the writer and trip pipefail.
    if ! grep -q "^$name " <<<"$methods_out"; then
        echo "svcli methods: method $name missing from GET /methods output:" >&2
        printf '%s\n' "$methods_out" >&2
        exit 1
    fi
done
"$bindir/datagen" -dataset mnist -n 300 -seed 3 -format bin -out "$bindir/class.bin" 2>/dev/null
"$bindir/datagen" -dataset regression -n 200 -dim 6 -seed 4 -format bin -out "$bindir/reg.bin" 2>/dev/null
for set in class reg; do
    up=$(curl -sf -H 'Content-Type: application/octet-stream' \
        --data-binary "@$bindir/$set.bin" "http://$addr/datasets")
    id=$(sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p' <<<"$up")
    if [ -z "$id" ]; then
        echo "binary upload of $set.bin failed: $up" >&2
        exit 1
    fi
    curl -sf -H 'Accept: application/octet-stream' "http://$addr/datasets/$id" -o "$bindir/$set.out"
    if ! cmp "$bindir/$set.bin" "$bindir/$set.out"; then
        echo "GET /datasets/$id served other bytes than $set.bin uploaded" >&2
        exit 1
    fi
done
kill "$svpid"

# Examples: build and run every examples/ program; a non-zero exit fails
# the run. About 5 s in all on a 2-vCPU host, most of it examples/proxy.
go build -o "$bindir/examples/" ./examples/...
for ex in "$bindir"/examples/*; do
    if ! "$ex" >"$bindir/example.log" 2>&1; then
        echo "example $(basename "$ex") failed:" >&2
        cat "$bindir/example.log" >&2
        exit 1
    fi
done

# Cluster end-to-end: three svserver workers plus one coordinator, all real
# processes; by-ref exact and truncated (eps 0.01) valuations scattered into
# per-peer shards and merged must print output bit-identical to the same
# valuations run in-process (%g is shortest-round-trip formatting, so
# identical text means identical float64 bits). The sync exact run reaches
# the coordinator through svcli -peers failover past a dead URL. After both
# runs, /cluster/statz and the /metrics pages of the coordinator and every
# worker must show the scatter. A second, larger async valuation gets one
# worker SIGKILLed while in flight; the coordinator must reassign its
# shards and still answer bit-identically. Finally a SIGTERMed worker must
# drain and log a clean shutdown.
cldir=$(mktemp -d)
clpids=()
cluster_cleanup() { kill "${clpids[@]}" 2>/dev/null || true; rm -rf "$cldir"; }
trap 'cleanup; cluster_cleanup' EXIT

awk 'BEGIN{srand(7); for(r=0;r<100000;r++){for(c=0;c<16;c++)printf "%.6f,", rand()*2-1; print int(rand()*3)}}' >"$cldir/train.csv"
awk 'BEGIN{srand(8); for(r=0;r<64;r++){for(c=0;c<16;c++)printf "%.6f,", rand()*2-1; print int(rand()*3)}}' >"$cldir/test.csv"

wait_addr() {
    local a=""
    for _ in $(seq 1 100); do
        a=$(sed -n 's/.*svserver listening on \(.*\)$/\1/p' "$1" | head -n1)
        [ -n "$a" ] && break
        sleep 0.1
    done
    if [ -z "$a" ]; then
        echo "svserver did not start:" >&2
        cat "$1" >&2
        exit 1
    fi
    printf '%s' "$a"
}

peers=""
worker_pids=()
for i in 1 2 3; do
    mkdir -p "$cldir/w$i"
    "$bindir/svserver" -addr 127.0.0.1:0 -data-dir "$cldir/w$i" >"$cldir/w$i.log" 2>&1 &
    clpids+=($!)
    worker_pids+=($!)
done
for i in 1 2 3; do
    peers="$peers,http://$(wait_addr "$cldir/w$i.log")"
done
peers=${peers#,}
mkdir -p "$cldir/coord"
"$bindir/svserver" -addr 127.0.0.1:0 -data-dir "$cldir/coord" \
    -coordinator -peers "$peers" >"$cldir/coord.log" 2>&1 &
clpids+=($!)
caddr=$(wait_addr "$cldir/coord.log")

"$bindir/svcli" -train "$cldir/train.csv" -test "$cldir/test.csv" -k 5 -algo exact \
    >"$cldir/local5.csv"
"$bindir/svcli" -train "$cldir/train.csv" -test "$cldir/test.csv" -k 5 -algo exact \
    -peers "http://127.0.0.1:1,http://$caddr" -by-ref >"$cldir/cluster5.csv"
if ! cmp -s "$cldir/local5.csv" "$cldir/cluster5.csv"; then
    echo "cluster valuation differs from the in-process run:" >&2
    diff "$cldir/local5.csv" "$cldir/cluster5.csv" >&2 | head >&2
    exit 1
fi

# The truncated method merges only each shard's top-K* list; the merged
# prefix must value bit-identically too, and /cluster/statz must show both
# valuations scattered (no local fallback).
"$bindir/svcli" -train "$cldir/train.csv" -test "$cldir/test.csv" -k 5 -algo truncated -eps 0.01 \
    >"$cldir/local5t.csv"
"$bindir/svcli" -train "$cldir/train.csv" -test "$cldir/test.csv" -k 5 -algo truncated -eps 0.01 \
    -server "http://$caddr" -by-ref >"$cldir/cluster5t.csv"
if ! cmp -s "$cldir/local5t.csv" "$cldir/cluster5t.csv"; then
    echo "truncated cluster valuation differs from the in-process run:" >&2
    diff "$cldir/local5t.csv" "$cldir/cluster5t.csv" | head >&2
    exit 1
fi
clstatz=$(curl -sf "http://$caddr/cluster/statz")
for want in '"valuations":2' '"fallbacks":0'; do
    if ! grep -qF "$want" <<<"$clstatz"; then
        echo "cluster E2E: expected $want in /cluster/statz: $clstatz" >&2
        exit 1
    fi
done
# The same counters on /metrics, from the exposition writer that renders
# every page: the coordinator's scatter counter and per-peer samples, shard
# sub-jobs on at least one worker, and no family typed twice on any page.
no_repeated_types() {
    local dups
    dups=$(grep '^# TYPE ' <<<"$1" | awk '{print $3}' | sort | uniq -d)
    if [ -n "$dups" ]; then
        echo "cluster E2E: $2 /metrics repeats # TYPE for: $dups" >&2
        exit 1
    fi
}
cmetrics=$(curl -sf "http://$caddr/metrics")
no_repeated_types "$cmetrics" coordinator
if ! grep -qx 'svserver_cluster_valuations_total 2' <<<"$cmetrics" ||
    ! grep -qF 'svserver_cluster_peer_shards_total{peer="' <<<"$cmetrics"; then
    echo "cluster E2E: coordinator /metrics lacks the scatter counters:" >&2
    grep '^svserver_cluster' <<<"$cmetrics" >&2
    exit 1
fi
shard_workers=0
for w in ${peers//,/ }; do
    wmetrics=$(curl -sf "$w/metrics")
    no_repeated_types "$wmetrics" "worker $w"
    if grep -Eq '^svserver_shard_jobs_total [1-9]' <<<"$wmetrics"; then
        shard_workers=$((shard_workers + 1))
    fi
done
if [ "$shard_workers" -eq 0 ]; then
    echo "cluster E2E: no worker's /metrics shows a shard sub-job" >&2
    exit 1
fi

"$bindir/svcli" -train "$cldir/train.csv" -test "$cldir/test.csv" -k 4 -algo exact \
    >"$cldir/local4.csv"
"$bindir/svcli" -train "$cldir/train.csv" -test "$cldir/test.csv" -k 4 -algo exact \
    -server "http://$caddr" -by-ref -async -poll 50ms >"$cldir/cluster4.csv" &
clipid=$!
sleep 0.4
kill -9 "${worker_pids[0]}"
if ! wait "$clipid"; then
    echo "cluster valuation failed after a worker was killed mid-job" >&2
    cat "$cldir/coord.log" >&2
    exit 1
fi
if ! cmp -s "$cldir/local4.csv" "$cldir/cluster4.csv"; then
    echo "post-kill cluster valuation differs from the in-process run" >&2
    exit 1
fi

kill -TERM "${worker_pids[1]}"
for _ in $(seq 1 100); do
    grep -q "shutdown complete" "$cldir/w2.log" && break
    sleep 0.1
done
if ! grep -q "shutdown complete" "$cldir/w2.log"; then
    echo "svserver did not drain cleanly on SIGTERM:" >&2
    cat "$cldir/w2.log" >&2
    exit 1
fi
cluster_cleanup
trap cleanup EXIT

# Crash-durability end-to-end: an async by-ref exact valuation is submitted
# to a real svserver, the process SIGKILLed mid-job, and a new process
# started on the same data dir. The restarted server must log the journal
# replay, re-run the job under its original ID, and "svcli -job" must fetch
# a result bit-identical to an uninterrupted local run (%g is
# shortest-round-trip formatting, so identical text means identical float64
# bits). SIGKILL, not SIGTERM: a graceful shutdown drains and journals jobs
# as canceled, so only a hard crash exercises replay. The job runs for
# seconds (5,000 training rows of dim 1,024 against 2,048 test points: about
# 4.5 s on a 2-vCPU Xeon, with a ~125 MB neighbor ranking), and the kill
# waits until GET /jobs/{id} reads it running with test points still to go,
# so the crash lands mid-job on a fast host too.
jdir=$(mktemp -d)
jpid=""
journal_cleanup() { kill -9 "$jpid" 2>/dev/null || true; rm -rf "$jdir"; }
trap 'cleanup; journal_cleanup' EXIT
mkdir -p "$jdir/data"
awk 'BEGIN{srand(11); for(r=0;r<5000;r++){for(c=0;c<1024;c++)printf "%.6f,", rand()*2-1; print int(rand()*3)}}' >"$jdir/train.csv"
awk 'BEGIN{srand(12); for(r=0;r<2048;r++){for(c=0;c<1024;c++)printf "%.6f,", rand()*2-1; print int(rand()*3)}}' >"$jdir/test.csv"
"$bindir/svcli" -train "$jdir/train.csv" -test "$jdir/test.csv" -k 5 -algo exact \
    >"$jdir/local.csv"

"$bindir/svserver" -addr 127.0.0.1:0 -data-dir "$jdir/data" >"$jdir/sv1.log" 2>&1 &
jpid=$!
jaddr=$(wait_addr "$jdir/sv1.log")
jobid=$("$bindir/svcli" -train "$jdir/train.csv" -test "$jdir/test.csv" -k 5 -algo exact \
    -server "http://$jaddr" -by-ref -async -submit-only)
midjob=""
jstatus=""
for _ in $(seq 1 500); do
    jstatus=$(curl -sf "http://$jaddr/jobs/$jobid" || true)
    if grep -q '"status":"running"' <<<"$jstatus"; then
        jdone=$(sed -n 's/.*"done":\([0-9]*\).*/\1/p' <<<"$jstatus")
        jtotal=$(sed -n 's/.*"total":\([0-9]*\).*/\1/p' <<<"$jstatus")
        if [ "$jdone" -lt "$jtotal" ]; then
            midjob=$jstatus
            break
        fi
    fi
    sleep 0.02
done
if [ -z "$midjob" ]; then
    echo "crash E2E: job $jobid was never seen running with test points left: $jstatus" >&2
    exit 1
fi
kill -9 "$jpid"
wait "$jpid" 2>/dev/null || true

"$bindir/svserver" -addr 127.0.0.1:0 -data-dir "$jdir/data" >"$jdir/sv2.log" 2>&1 &
jpid=$!
jaddr=$(wait_addr "$jdir/sv2.log")
if ! grep -q "journal replay: 1 re-submitted" "$jdir/sv2.log"; then
    echo "restarted svserver did not replay the journaled job:" >&2
    cat "$jdir/sv2.log" >&2
    exit 1
fi
"$bindir/svcli" -job "$jobid" -server "http://$jaddr" -poll 50ms >"$jdir/restart.csv"
if ! cmp -s "$jdir/local.csv" "$jdir/restart.csv"; then
    echo "replayed job $jobid differs from the uninterrupted run:" >&2
    diff "$jdir/local.csv" "$jdir/restart.csv" | head >&2
    exit 1
fi
kill "$jpid"
journal_cleanup
trap cleanup EXIT

# Incremental delta end-to-end: upload a training set, value it by ref
# (one full scan builds the cached neighbor rankings), derive a child via
# "svcli delta -append", and re-value the child by ref. The child's values
# must be bit-identical to an in-process run over the concatenated CSV
# (%g round-trips float64 bits), and /metrics must show exactly one full
# scan and one O(ΔN) patch — a second full scan means the revaluation
# missed the incremental path.
ddir=$(mktemp -d)
dpid=""
delta_cleanup() { kill "$dpid" 2>/dev/null || true; rm -rf "$ddir"; }
trap 'cleanup; delta_cleanup' EXIT
mkdir -p "$ddir/data"
awk 'BEGIN{srand(21); for(r=0;r<20000;r++){for(c=0;c<16;c++)printf "%.6f,", rand()*2-1; print int(rand()*3)}}' >"$ddir/train.csv"
awk 'BEGIN{srand(22); for(r=0;r<10;r++){for(c=0;c<16;c++)printf "%.6f,", rand()*2-1; print int(rand()*3)}}' >"$ddir/extra.csv"
awk 'BEGIN{srand(23); for(r=0;r<16;r++){for(c=0;c<16;c++)printf "%.6f,", rand()*2-1; print int(rand()*3)}}' >"$ddir/test.csv"
cat "$ddir/train.csv" "$ddir/extra.csv" >"$ddir/combined.csv"
"$bindir/svcli" -train "$ddir/combined.csv" -test "$ddir/test.csv" -k 5 -algo exact \
    >"$ddir/local.csv"

"$bindir/svserver" -addr 127.0.0.1:0 -data-dir "$ddir/data" >"$ddir/sv.log" 2>&1 &
dpid=$!
daddr=$(wait_addr "$ddir/sv.log")
tid=$("$bindir/svcli" upload -server "http://$daddr" -data "$ddir/train.csv")
"$bindir/svcli" -train-ref "$tid" -test "$ddir/test.csv" -k 5 -algo exact \
    -server "http://$daddr" >/dev/null
cid=$("$bindir/svcli" delta -server "http://$daddr" -id "$tid" -append "$ddir/extra.csv")
"$bindir/svcli" -train-ref "$cid" -test "$ddir/test.csv" -k 5 -algo exact \
    -server "http://$daddr" >"$ddir/delta.csv"
if ! cmp -s "$ddir/local.csv" "$ddir/delta.csv"; then
    echo "delta-derived valuation differs from the from-scratch run:" >&2
    diff "$ddir/local.csv" "$ddir/delta.csv" | head >&2
    exit 1
fi
metrics=$(curl -sf "http://$daddr/metrics")
for want in "svserver_incremental_fromscratch_total 1" "svserver_incremental_patches_total 1"; do
    if ! grep -q "^$want\$" <<<"$metrics"; then
        echo "delta E2E: expected \"$want\" in /metrics:" >&2
        grep "^svserver_incremental" <<<"$metrics" >&2
        exit 1
    fi
done

# A second append to the child: the grandchild's cached ranking is patched
# off the child's, an overlay on top of an overlay. Its exact and truncated
# (eps 0.01, K* < N) valuations by ref must both match in-process runs over
# the concatenated CSV, with one more patch and still one full scan.
awk 'BEGIN{srand(24); for(r=0;r<10;r++){for(c=0;c<16;c++)printf "%.6f,", rand()*2-1; print int(rand()*3)}}' >"$ddir/extra2.csv"
cat "$ddir/combined.csv" "$ddir/extra2.csv" >"$ddir/combined2.csv"
gid=$("$bindir/svcli" delta -server "http://$daddr" -id "$cid" -append "$ddir/extra2.csv")
for algo in "exact" "truncated -eps 0.01"; do
    name=${algo%% *}
    # $algo is split on purpose: it carries the method's flags.
    "$bindir/svcli" -train "$ddir/combined2.csv" -test "$ddir/test.csv" -k 5 -algo $algo \
        >"$ddir/local2-$name.csv"
    "$bindir/svcli" -train-ref "$gid" -test "$ddir/test.csv" -k 5 -algo $algo \
        -server "http://$daddr" >"$ddir/delta2-$name.csv"
    if ! cmp -s "$ddir/local2-$name.csv" "$ddir/delta2-$name.csv"; then
        echo "delta E2E: grandchild $name valuation differs from the from-scratch run:" >&2
        diff "$ddir/local2-$name.csv" "$ddir/delta2-$name.csv" | head >&2
        exit 1
    fi
done
metrics=$(curl -sf "http://$daddr/metrics")
for want in "svserver_incremental_fromscratch_total 1" "svserver_incremental_patches_total 2"; do
    if ! grep -q "^$want\$" <<<"$metrics"; then
        echo "delta E2E: expected \"$want\" after the second append in /metrics:" >&2
        grep "^svserver_incremental" <<<"$metrics" >&2
        exit 1
    fi
done
# Each ranking enters the rank cache's probation segment and is promoted by
# its first reuse: the parent and the child as patch parents, the grandchild
# by the truncated replay after its exact valuation.
if ! grep -q "^svserver_rank_cache_promotions_total 3\$" <<<"$metrics"; then
    echo "delta E2E: expected \"svserver_rank_cache_promotions_total 3\" in /metrics:" >&2
    grep "^svserver_rank_cache" <<<"$metrics" >&2
    exit 1
fi
kill "$dpid"
delta_cleanup
trap cleanup EXIT

# Planner + index-store end-to-end: N=1e4 dim-4 data sits exactly on a
# calibration grid point where the cost model's verdict is unambiguous —
# truncated wins cold (a k-d build does not amortize over 16 test points),
# kd wins once its tree is persisted (reload ≈ 5% of the build). The host
# micro-probe rescales every estimate by one scalar, so the picks are
# machine-independent. The run drives: a cold algo=auto valuation
# (planner counts a truncated pick), an explicit kd index-build job via
# "svcli indexes -build" (a .knnsi artifact lands on disk), a server
# restart (the store recovers the artifact), a warm auto valuation (the
# planner flips to kd and the store's load counter proves the tree was
# reloaded, not rebuilt), and a dataset delete (the artifact is cascaded
# away).
pdir=$(mktemp -d)
ppid=""
planner_cleanup() { kill "$ppid" 2>/dev/null || true; rm -rf "$pdir"; }
trap 'cleanup; planner_cleanup' EXIT
mkdir -p "$pdir/data"
awk 'BEGIN{srand(31); for(r=0;r<10000;r++){for(c=0;c<4;c++)printf "%.6f,", rand()*2-1; print int(rand()*3)}}' >"$pdir/train.csv"
awk 'BEGIN{srand(32); for(r=0;r<16;r++){for(c=0;c<4;c++)printf "%.6f,", rand()*2-1; print int(rand()*3)}}' >"$pdir/test.csv"

"$bindir/svserver" -addr 127.0.0.1:0 -data-dir "$pdir/data" >"$pdir/sv1.log" 2>&1 &
ppid=$!
paddr=$(wait_addr "$pdir/sv1.log")
tid=$("$bindir/svcli" upload -server "http://$paddr" -data "$pdir/train.csv")

"$bindir/svcli" -train-ref "$tid" -test "$pdir/test.csv" -k 5 -algo auto -eps 0.1 \
    -server "http://$paddr" >/dev/null
pmetrics=$(curl -sf "http://$paddr/metrics")
for want in 'svserver_planner_plans_total 1' 'svserver_planner_picks_total{method="truncated"} 1'; do
    if ! grep -qF "$want" <<<"$pmetrics"; then
        echo "planner E2E: expected \"$want\" in cold /metrics:" >&2
        grep "^svserver_planner" <<<"$pmetrics" >&2
        exit 1
    fi
done

iid=$("$bindir/svcli" indexes -server "http://$paddr" -build "$tid" -kind kd -k 5)
if ! "$bindir/svcli" indexes -server "http://$paddr" | grep -q "$iid"; then
    echo "planner E2E: built index $iid missing from the index list" >&2
    exit 1
fi
if ! ls "$pdir/data/indexes"/*.knnsi >/dev/null 2>&1; then
    echo "planner E2E: no .knnsi artifact on disk after the build job" >&2
    ls -la "$pdir/data/indexes" >&2 || true
    exit 1
fi

kill "$ppid"
wait "$ppid" 2>/dev/null || true
"$bindir/svserver" -addr 127.0.0.1:0 -data-dir "$pdir/data" >"$pdir/sv2.log" 2>&1 &
ppid=$!
paddr=$(wait_addr "$pdir/sv2.log")
if ! grep -q "recovered 1 persisted indexes" "$pdir/sv2.log"; then
    echo "planner E2E: restarted svserver did not recover the persisted index:" >&2
    cat "$pdir/sv2.log" >&2
    exit 1
fi
"$bindir/svcli" -train-ref "$tid" -test "$pdir/test.csv" -k 5 -algo auto -eps 0.1 \
    -server "http://$paddr" >/dev/null
pmetrics=$(curl -sf "http://$paddr/metrics")
if ! grep -qF 'svserver_planner_picks_total{method="kd"} 1' <<<"$pmetrics"; then
    echo "planner E2E: auto did not flip to kd with the persisted index:" >&2
    grep "^svserver_planner" <<<"$pmetrics" >&2
    exit 1
fi
if ! grep -E '^svserver_index_store_loads_total [1-9]' <<<"$pmetrics" >/dev/null; then
    echo "planner E2E: the warm kd run did not reload the persisted tree:" >&2
    grep "^svserver_index_store" <<<"$pmetrics" >&2
    exit 1
fi

curl -sf -X DELETE "http://$paddr/datasets/$tid" -o /dev/null
if ls "$pdir/data/indexes"/*.knnsi >/dev/null 2>&1; then
    echo "planner E2E: dataset delete left .knnsi artifacts behind:" >&2
    ls -la "$pdir/data/indexes" >&2
    exit 1
fi
kill "$ppid"
planner_cleanup
trap cleanup EXIT

# Perf smoke + regression gate: the machine-readable engine
# micro-benchmarks, capped at N=1e4 so the sweep stays seconds, diffed
# against the committed full-sweep baseline. -threshold 4 absorbs
# loaded-machine noise while still catching order-of-magnitude
# regressions; records under 10µs are reported but never enforced.
# Written OUTSIDE the repo (override with BENCH_SMOKE; CI uploads it as
# an artifact) so the committed BENCH_9.json trajectory point is never
# clobbered by smoke numbers — regenerate that one deliberately with:
#   go run ./cmd/svbench -benchjson BENCH_9.json
go run ./cmd/svbench -benchjson "${BENCH_SMOKE:-/tmp/BENCH_9.json}" -benchmax 10000 -compare BENCH_9.json -threshold 4
