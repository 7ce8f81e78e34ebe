#!/bin/sh
# verify.sh — the repo's full verification chain: the tier-1 gate from
# ROADMAP.md (build, gofmt, the one-traversal grep, tests, vet, the
# whole suite again under -race — which is where the chaos, concurrency, caching, evaluator
# differential, telemetry, durability, wire and server suites run; no
# line below repeats them) and the one-pipeline, one-index and one-logic greps, plus everything
# tier-1 does not run: a
# one-iteration benchmark smoke (catches broken benchmark code and
# instrumentation regressions without paying for a real measurement
# run), the benchmark of record's own tests and smoke run (benchmark/ is
# a nested module), the crash-chaos kill sweep on its own (child
# SIGKILLed at every WAL/snapshot fault-site visit and 72 random log
# truncations, every recovered state prefix-legal), fifty runs of the
# close/checkpoint/replica-apply/view-redefinition race tests, the adversarial scenario
# engine's 500-seed differential sweep under -race (its matrix keeps the
# interpreted-vs-compiled evaluator axis), a debug-listener smoke that scrapes /metrics twice and checks the
# exposition is well-formed with monotone counters, a kill -9 recovery
# smoke through the REPL (populate durably, kill the process, reopen,
# scripted query check), a disqod end-to-end smoke (remote DDL/DML/query
# over TCP, SIGTERM drain must log a clean exit, kill -9 after an
# acknowledged write must recover on restart), Fig. 7(b)'s Query 2d at
# TPC-H SF 1 with no timed-out or aborted cell, a 10-second smoke of each
# native fuzz target (including the WAL and result frame decoders), and last the
# tracked size number: non-test Go lines per package outside benchmark/.
set -eux

go build ./...
test -z "$(gofmt -l .)"
# The shape of the two trees is stated once, in internal/algebra; LIKE
# means nothing special to the rewriter, the translator or the root
# package, so a case arm for it there is a hand-copied traversal.
# (test -z, not "! grep": set -e ignores a negated pipeline.)
test -z "$(grep -rn 'case \*algebra\.LikeExpr' internal/rewrite internal/translate ./*.go)"
# The query pipeline is stated once in the root package: the WAL and view
# definitions hold statements as written (normalizeSQL only makes cache
# keys; view text enters the catalog through catalog.NewView), and no
# second line constructs a physical planner or passes the admission gate.
rootsrc=$(ls ./*.go | grep -v _test.go)
test -z "$(grep -n 'normalizeSQL(' $rootsrc | grep -E 'logLocked|NewView')"
test -z "$(cat $rootsrc | grep 'physical\.NewPlanner(' | tail -n +2)"
test -z "$(cat $rootsrc | grep 'gate\.acquire(' | tail -n +2)"
# So is the write path: commit (write.go) is the only caller of the
# sealed-WAL guard, the cache invalidation and the log append; it,
# Checkpoint and a replica's snapshot install are the only holders of
# writeMu; and replay reaches the parser through the write constructors,
# not on its own.
test -z "$(cat $rootsrc | grep 'writeMu\.Lock()' | tail -n +4)"
test -z "$(cat $rootsrc | grep 'db\.writeGuard()' | tail -n +2)"
test -z "$(cat $rootsrc | grep 'db\.logLocked(' | tail -n +2)"
test -z "$(cat $rootsrc | grep 'db\.afterWrite(' | tail -n +2)"
test -z "$(grep -n 'sqlparser\.ParseStatement(' durability.go replica.go)"
# The hashed-row index is written once (types.RowIndex): no hand-rolled
# "hash → slice of candidates" table in the packages that used to carry
# one each. And types.Value is 32 bytes by layout, not by unsafe tricks.
test -z "$(grep -n 'map\[uint64\]\[\]' $(ls internal/exec/*.go internal/agg/*.go internal/storage/*.go write.go | grep -v _test.go))"
test -z "$(grep -l '"unsafe"' $(ls internal/types/*.go | grep -v _test.go))"
# Two-valued logic is one translation at the front (translate.TwoValued),
# not a mode: nothing below the planner names a null mode or lifts a leaf.
test -z "$(grep -nE 'NullMode|Lift\(|WithNulls|EvalMode' $(ls internal/exec/*.go internal/vec/*.go internal/storage/*.go internal/types/*.go internal/rewrite/*.go internal/physical/*.go internal/stats/*.go | grep -v _test.go))"
# Result rows have one encoding, the columnar frame: no per-value JSON
# codec comes back into internal/wire.
test -z "$(grep -nE 'func \([^)]*\) (Marshal|Unmarshal)JSON\(' $(ls internal/wire/*.go | grep -v _test.go))"
# Disjunctive correlation has one rule, Eqv. 5's tagged binary grouping:
# no Eqv. 4 rule, fO combiner expression, decomposition or knob to
# choose between the two comes back.
test -z "$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs grep -nE 'buildEqv4|AggCombine|PreferEqv5|Partials\(|Decomposable\(|agg\.Combine\(')"
# A predicate's operands have one order, stats.Estimator.Order's, and a
# hash's keys one test, algebra.EquiKeys: no second sort by rank or by
# disjunct gain, and no second check of which equalities hash.
test -z "$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs grep -nE 'sortByRank|disjunctGain|orderPred|hashableBetween|hashableEquality|\.Rank\(')"
# Table statistics are per column (Table.ColumnStats, one sort per
# column on first use): no whole-table statistics pass comes back.
test -z "$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs grep -nE 'TableStats|Table\) Stats\(')"
# Γ folds each group once, in input order, in key partitions: no forced
# per-morsel chunking and no merge of per-morsel accumulators comes back.
test -z "$(grep -nE 'forceChunks|Merge\(' $(ls internal/exec/*.go internal/agg/*.go | grep -v _test.go))"
# The linking selection of an unnested plan runs inside the outer join
# below it: Fig. 7's Q1 shows the predicate on the join, not a Filter.
q1plan=$(go run ./cmd/disqo -rst 0.05 -explain -e 'SELECT DISTINCT * FROM r WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) OR a4 > 1500')
echo "$q1plan" | grep -qF 'σ[(r.a1 = g1)]'
test -z "$(echo "$q1plan" | grep -F 'Filter[(r.a1 = g1)]')"
go test ./...
go vet ./...
go test -race ./...
go test -bench=. -benchtime=1x -run '^$' ./...
# The benchmark of record is a nested module the root's ./... does not
# see: build and test it against this tree, then run every workload once.
(cd benchmark && go test ./...)
bash benchmark/run.sh -smoke
go test -race -run 'TestCrashChaos' .
# The durability race tests interleave Close, checkpoints and replica
# applies differently on every run; fifty runs each keep a one-in-ten
# flake from hiding behind a single green run.
go test -race -count=50 -run 'TestCloseDuringReplicaApply|TestCheckpointRacesDML|TestCloseImmediatelyAfterRecovery|TestViewRedefinitionRacesReaders' .
# Adversarial scenario engine: the full 500-seed differential sweep
# under -race (every generated query must answer identically across
# canonical/unnested × interpreted/compiled evaluator × cache tiers ×
# workers × null modes).
SCENARIO_SEEDS=500 go test -race -run 'TestRunnerSweep' -timeout 30m ./internal/scenario
# Debug-listener smoke: hold a REPL open over a FIFO, scrape /metrics
# around a query, and check the exposition is well-formed (every sample
# belongs to a "# TYPE"-declared family) with monotone counters.
dbgdir=$(mktemp -d)
dbgaddr=127.0.0.1:63990
mkfifo "$dbgdir/stdin"
go run ./cmd/disqo -rst 0.01 -debug-addr "$dbgaddr" <"$dbgdir/stdin" >"$dbgdir/repl.out" 2>&1 &
dbgpid=$!
exec 9>"$dbgdir/stdin"
i=0
until curl -sf "http://$dbgaddr/metrics" >"$dbgdir/m1.txt"; do
    i=$((i + 1))
    test "$i" -le 120 || { cat "$dbgdir/repl.out"; exit 1; }
    sleep 0.5
done
echo 'SELECT DISTINCT * FROM r WHERE a4 > 1500;' >&9
sleep 1
curl -sf "http://$dbgaddr/metrics" >"$dbgdir/m2.txt"
exec 9>&-
wait "$dbgpid"
awk '/^# TYPE /{t[$3]=1;next} /^#/{next} NF{n=$1;sub(/\{.*/,"",n);b=n;sub(/_(bucket|sum|count)$/,"",b);if(!(n in t)&&!(b in t)){print "undeclared family: "$0;exit 1}}' "$dbgdir/m1.txt"
q1=$(awk '$1=="disqo_queries_total"{print $2}' "$dbgdir/m1.txt")
q2=$(awk '$1=="disqo_queries_total"{print $2}' "$dbgdir/m2.txt")
test "$q2" -gt "$q1"
rm -rf "$dbgdir"

# Crash-recovery smoke through the REPL: populate a durable dir, kill
# the process without ceremony, reopen, and check the recovered answer.
crashdir=$(mktemp -d)
mkfifo "$crashdir/stdin"
go run ./cmd/disqo -data "$crashdir/data" <"$crashdir/stdin" >"$crashdir/repl.out" 2>&1 &
crashpid=$!
exec 8>"$crashdir/stdin"
echo 'CREATE TABLE k (a INTEGER, b VARCHAR);' >&8
echo "INSERT INTO k VALUES (1, 'one'), (2, 'two'), (3, NULL);" >&8
echo 'DELETE FROM k WHERE a = 2;' >&8
i=0
until grep -c 'rows affected' "$crashdir/repl.out" | grep -qx 3; do
    i=$((i + 1))
    test "$i" -le 120 || { cat "$crashdir/repl.out"; exit 1; }
    sleep 0.5
done
# kill -9 the whole go-run process group: no flush, no deferred cleanup.
kill -9 "$crashpid" 2>/dev/null || true
pkill -9 -f "disqo -data $crashdir/data" 2>/dev/null || true
wait "$crashpid" 2>/dev/null || true
exec 8>&-
go run ./cmd/disqo -data "$crashdir/data" -e 'SELECT DISTINCT * FROM k' >"$crashdir/recovered.out" 2>"$crashdir/recovered.err"
grep -q 'recovered 3 WAL records' "$crashdir/recovered.err"
grep -q '(2 rows)' "$crashdir/recovered.out"
rm -rf "$crashdir"

# Server smoke: run disqod durably, drive it with the remote client,
# SIGTERM it (the drain must log a clean exit), then kill -9 a fresh
# instance after an acknowledged write and check the restart serves it.
srvdir=$(mktemp -d)
srvaddr=127.0.0.1:63991
go build -o "$srvdir/disqod" ./cmd/disqod
go build -o "$srvdir/disqo" ./cmd/disqo
"$srvdir/disqod" -listen "$srvaddr" -data "$srvdir/data" >"$srvdir/serve1.log" 2>&1 &
srvpid=$!
i=0
until "$srvdir/disqo" -connect "$srvaddr" -e 'CREATE TABLE sk (a INTEGER)' 2>/dev/null | grep -q 'ok ('; do
    i=$((i + 1))
    test "$i" -le 120 || { cat "$srvdir/serve1.log"; exit 1; }
    sleep 0.5
done
"$srvdir/disqo" -connect "$srvaddr" -e 'INSERT INTO sk VALUES (1), (2), (3)' | grep -q 'ok (3 rows affected)'
"$srvdir/disqo" -connect "$srvaddr" -e 'DELETE FROM sk WHERE a = 2' | grep -q 'ok (1 rows affected)'
"$srvdir/disqo" -connect "$srvaddr" -e 'SELECT DISTINCT * FROM sk' | grep -q '(2 rows)'
kill -TERM "$srvpid"
wait "$srvpid"
grep -q 'drained cleanly' "$srvdir/serve1.log"
grep -q 'bye' "$srvdir/serve1.log"
"$srvdir/disqod" -listen "$srvaddr" -data "$srvdir/data" >"$srvdir/serve2.log" 2>&1 &
srvpid=$!
i=0
until "$srvdir/disqo" -connect "$srvaddr" -e 'SELECT DISTINCT * FROM sk' 2>/dev/null | grep -q '(2 rows)'; do
    i=$((i + 1))
    test "$i" -le 120 || { cat "$srvdir/serve2.log"; exit 1; }
    sleep 0.5
done
"$srvdir/disqo" -connect "$srvaddr" -e 'INSERT INTO sk VALUES (4)' | grep -q 'ok (1 rows affected)'
kill -9 "$srvpid"
wait "$srvpid" 2>/dev/null || true
"$srvdir/disqod" -listen "$srvaddr" -data "$srvdir/data" >"$srvdir/serve3.log" 2>&1 &
srvpid=$!
i=0
until "$srvdir/disqo" -connect "$srvaddr" -e 'SELECT DISTINCT * FROM sk' 2>/dev/null | grep -q '(3 rows)'; do
    i=$((i + 1))
    test "$i" -le 120 || { cat "$srvdir/serve3.log"; exit 1; }
    sleep 0.5
done
kill -TERM "$srvpid"
wait "$srvpid"
rm -rf "$srvdir"

# Query 2d at the paper's largest TPC-H scale stays feasible: Fig. 7(b) at
# SF 1 must print a time in every cell, never the harness's timeout
# (n/a), memory-limit (mem), abort (abrt) or error (err) cell.
fig7b=$(go run ./cmd/bench -exp fig7b -strategies unnested,costbased -tpch 1 -q)
echo "$fig7b"
test "$(echo "$fig7b" | grep -cE '^(unnested|costbased) ')" -eq 2
test -z "$(echo "$fig7b" | grep -E '^(unnested|costbased) ' | grep -wE 'n/a|mem|abrt|err')"

go test -fuzz=FuzzParse -fuzztime=10s -run '^$' ./internal/sqlparser
go test -fuzz=FuzzQuery -fuzztime=10s -run '^$' .
go test -fuzz=FuzzNormalizeSQL -fuzztime=10s -run '^$' .
go test -fuzz=FuzzWALDecode -fuzztime=10s -run '^$' ./internal/wal
go test -fuzz=FuzzDecodeRows -fuzztime=10s -run '^$' ./internal/wire

# Net LOC is a tracked number: non-test Go lines per package.
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs wc -l | awk '$2 != "total" {sub(/\/[^\/]*$/, "", $2); n[$2] += $1; t += $1} END {for (d in n) print n[d], d; print t, "total"}' | sort -k2
