#!/bin/sh
# Repo gate: gofmt, vet, build, full tests, vet and test the nested
# servebench module, race-test the hot packages, then smoke the Fig 3
# benchmarks (including the large hub-bitmap variants) once. CI runs
# this via `make ci`.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
fmt_out="$(gofmt -l .)"
if [ -n "$fmt_out" ]; then
	echo "FAIL: the following files are not gofmt-clean:" >&2
	echo "$fmt_out" >&2
	echo "run: gofmt -w ." >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test (full) =="
go test ./...

# servebench is its own module, so ./... above skips it; it calls
# library functions by name, and a rename must fail here, not in the
# next benchmark run.
echo "== servebench module (vet + test) =="
(cd servebench && go vet ./... && go test ./...)

echo "== go test -race (hot packages + cancellation/fault-injection + epoch swaps) =="
go test -race ./internal/core/... ./internal/graph/... ./internal/bitset/... \
	./internal/bfs/... ./internal/centrality/... ./internal/dynsky/... \
	./internal/clique/... ./internal/runctl/... ./internal/serve/... \
	./internal/sketch/... ./internal/skytree/... ./internal/wal/...
go test -race -run 'Cancel|Ctx|Apply' ./internal/mis/ ./internal/betweenness/

echo "== bench smoke (Fig3, 1 iteration) =="
go test -run '^$' -bench 'Fig3' -benchtime 1x .

echo "== bench smoke (MS-BFS vs scalar sweep, 1 iteration) =="
go test -run '^$' -bench 'MSBFS' -benchtime 1x ./internal/bfs/

echo "== scale pipeline smoke (stream-convert -> mmap -> skyline) =="
scaledir="$(mktemp -d)"
serve_pid=""
cleanup() {
	if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
		kill "$serve_pid" 2>/dev/null || true
		wait "$serve_pid" 2>/dev/null || true
	fi
	rm -rf "$scaledir"
}
trap cleanup EXIT
go run ./cmd/nsgen -model chunglu -n 5000 -m 20000 -shuffle -relabel -o "$scaledir/smoke.nsb2"
go run ./cmd/nsky -input "$scaledir/smoke.nsb2" -mmap

echo "== serving smoke (nsserve boot + group-centrality and top-k clique reads + SIGINT) =="
go build -o "$scaledir/nsserve" ./cmd/nsserve
"$scaledir/nsserve" -input "$scaledir/smoke.nsb2" -mmap \
	-addr 127.0.0.1:0 -addr-file "$scaledir/addr" &
serve_pid=$!
i=0
while [ ! -s "$scaledir/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "FAIL: nsserve did not come up" >&2
		exit 1
	fi
	kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: nsserve exited early" >&2; exit 1; }
	sleep 0.1
done
# The servebench runs below read neither endpoint.
for path in "/v1/centrality/group?k=2&measure=harmonic" "/v1/clique?k=2"; do
	curl -sf "http://$(cat "$scaledir/addr")$path" >/dev/null \
		|| { echo "FAIL: GET $path did not answer 200" >&2; exit 1; }
done
kill -INT "$serve_pid"
wait "$serve_pid" || { echo "FAIL: nsserve did not shut down cleanly on SIGINT" >&2; exit 1; }
serve_pid=""

# servebench drives the nsserve built above on its 100k-vertex snapshot
# and checks every answer against the graph of the epoch it names.
# skyline-reads covers skyline, dominators and clique reads and swaps
# without the layered index; durable-writes covers layers, explain and
# subset reads, swaps that carry the index, and checkpoints. Both end
# with kill -9 restarts from the WAL. durable-writes swaps every 2 s, so
# it needs 4 s for two swaps.
echo "== serving benchmark smoke (servebench skyline-reads 1 s, durable-writes 4 s) =="
(cd servebench && go build -o "$scaledir/servebench" .)
servebench_smoke() {
	out="$("$scaledir/servebench" -nsserve "$scaledir/nsserve" -work "$scaledir/servebench-work" \
		-workload "$1" -seed 1 -seconds "$2")" \
		|| { echo "FAIL: servebench $1 failed: $out" >&2; exit 1; }
	echo "$out" | tail -n 1
	echo "$out" | grep -q '"correct":true' \
		|| { echo "FAIL: servebench $1 did not report correct answers" >&2; exit 1; }
}
servebench_smoke skyline-reads 1
servebench_smoke durable-writes 4

echo "== crash-recovery smoke (nsserve -wal, kill -9 mid-stream, restart, recovered state) =="
waldir="$scaledir/wal"
rm -f "$scaledir/addr"
"$scaledir/nsserve" -input "$scaledir/smoke.nsb2" -mmap -wal "$waldir" \
	-addr 127.0.0.1:0 -addr-file "$scaledir/addr" >"$scaledir/wal-boot.log" &
serve_pid=$!
i=0
while [ ! -s "$scaledir/addr" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "FAIL: durable nsserve did not come up" >&2; exit 1; }
	kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: durable nsserve exited early" >&2; exit 1; }
	sleep 0.1
done
base="http://$(cat "$scaledir/addr")"
# Ten acknowledged swaps: with -wal-sync always (the default), every
# 200 below is a durability promise the recovery must keep.
i=0
while [ "$i" -lt 10 ]; do
	i=$((i + 1))
	curl -sf -X POST "$base/v1/snapshot/swap" \
		-d "{\"ops\":[{\"add\":true,\"u\":$i,\"v\":$((i + 1000))}]}" >/dev/null \
		|| { echo "FAIL: acked swap $i failed" >&2; exit 1; }
done
# Keep a swap stream in flight and kill -9 mid-stream: the tail may
# tear, but never the ten acknowledged batches above.
( j=0; while [ "$j" -lt 1000 ]; do j=$((j + 1)); \
	curl -s -X POST "$base/v1/snapshot/swap" \
		-d "{\"ops\":[{\"add\":true,\"u\":$j,\"v\":$((j + 2000))}]}" >/dev/null 2>&1 || exit 0; \
  done ) &
stream_pid=$!
sleep 0.4
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
wait "$stream_pid" 2>/dev/null || true

# recover_stats boots from the WAL alone and writes the recovered
# fingerprint (edge count, last sequence, skyline size) to $1.
recover_stats() {
	rm -f "$scaledir/addr"
	"$scaledir/nsserve" -wal "$waldir" -addr 127.0.0.1:0 -addr-file "$scaledir/addr" \
		>"$scaledir/wal-recover.log" &
	serve_pid=$!
	i=0
	while [ ! -s "$scaledir/addr" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "FAIL: recovery boot did not come up" >&2; exit 1; }
		kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: recovery boot exited early (see $scaledir/wal-recover.log)" >&2; cat "$scaledir/wal-recover.log" >&2; exit 1; }
		sleep 0.1
	done
	grep -q "nsserve: recovered" "$scaledir/wal-recover.log" \
		|| { echo "FAIL: restart did not report a recovery" >&2; exit 1; }
	{
		curl -sf "http://$(cat "$scaledir/addr")/v1/stats" \
			| tr -d ' \n' | grep -o '"m":[0-9]*\|"wal_last_seq":[0-9]*' | sort | tr '\n' ';'
		curl -sf "http://$(cat "$scaledir/addr")/v1/skyline?limit=1" \
			| tr -d ' \n' | grep -o '"skyline_size":[0-9]*'
	} >"$1"
}

recover_stats "$scaledir/recover1"
seq1="$(grep -o 'wal_last_seq":[0-9]*' "$scaledir/recover1" | grep -o '[0-9]*')"
[ "$seq1" -ge 10 ] || { echo "FAIL: recovered through seq $seq1, want >= 10 acked swaps" >&2; exit 1; }
# Crash the recovered daemon too (no new writes): a second recovery
# must land on the identical state — op count and skyline alike.
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
recover_stats "$scaledir/recover2"
cmp -s "$scaledir/recover1" "$scaledir/recover2" \
	|| { echo "FAIL: repeated recovery diverged: '$(cat "$scaledir/recover1")' vs '$(cat "$scaledir/recover2")'" >&2; exit 1; }
echo "crash recovery: acked prefix ($seq1 batches) and skyline stable across restarts"
# Recovery starts a lineage: the first batch swap after it seeds its
# status with a skyline engine run, the second continues from the
# status the first published. The second swap's skyline_size and epoch
# must equal those of a skyline read, which reruns the engine.
base="http://$(cat "$scaledir/addr")"
size_epoch() { tr -d ' \n' | grep -o '"epoch":[0-9]*\|"skyline_size":[0-9]*' | sort | tr '\n' ';'; }
for ops in '{"add":true,"u":4000,"v":4500}' '{"add":true,"u":4001,"v":4501},{"add":false,"u":4000,"v":4500}'; do
	swapped="$(curl -sf -X POST "$base/v1/snapshot/swap" -d "{\"ops\":[$ops]}" | size_epoch)"
	echo "$swapped" | grep -q skyline_size \
		|| { echo "FAIL: batch swap after recovery answered '$swapped'" >&2; exit 1; }
done
read_back="$(curl -sf "$base/v1/skyline?limit=1" | size_epoch)"
[ "$swapped" = "$read_back" ] \
	|| { echo "FAIL: carried swap reported '$swapped', a skyline read '$read_back'" >&2; exit 1; }
echo "carried status: second swap after recovery agrees with a skyline read ($read_back)"
kill -INT "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "OK"
