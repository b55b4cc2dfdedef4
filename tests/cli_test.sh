#!/usr/bin/env bash
# End-to-end smoke test of the `opmap` CLI: generate -> cubes -> every
# interactive command. Run by ctest with the binary path as $1.
set -euo pipefail

OPMAP="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

fail() { echo "FAIL: $1" >&2; exit 1; }

"$OPMAP" >/dev/null 2>&1 && fail "no-arg invocation should exit non-zero"

"$OPMAP" generate --records=20000 --attributes=12 --out="$DIR/d.opmd" \
    | grep -q "wrote 20000 records" || fail "generate"

"$OPMAP" info --data="$DIR/d.opmd" | grep -q "PhoneModel" || fail "info data"

"$OPMAP" cubes --data="$DIR/d.opmd" --out="$DIR/d.opmc" \
    | grep -q "built" || fail "cubes"

"$OPMAP" info --cubes="$DIR/d.opmc" | grep -q "cube store" || fail "info cubes"

# Blocked-kernel tile size: any --block-rows value must yield a
# byte-identical store; invalid values exit 4 like --threads.
"$OPMAP" cubes --data="$DIR/d.opmd" --out="$DIR/d7.opmc" --block-rows=7 \
    >/dev/null || fail "cubes --block-rows"
cmp -s "$DIR/d.opmc" "$DIR/d7.opmc" || fail "--block-rows=7 store differs"
rc=0; "$OPMAP" cubes --data="$DIR/d.opmd" --out="$DIR/x.opmc" \
    --block-rows=0 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 4 ] || fail "--block-rows=0 should exit 4 (got $rc)"
rc=0; "$OPMAP" cubes --data="$DIR/d.opmd" --out="$DIR/x.opmc" \
    --block-rows=abc >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 4 ] || fail "--block-rows=abc should exit 4 (got $rc)"

"$OPMAP" overview --cubes="$DIR/d.opmc" | grep -q "Overall visualization" \
    || fail "overview"

"$OPMAP" detail --cubes="$DIR/d.opmc" --attribute=PhoneModel \
    | grep -q "ph01" || fail "detail"

"$OPMAP" compare --cubes="$DIR/d.opmc" --attribute=PhoneModel \
    --good=ph01 --bad=ph03 --class=dropped-while-in-progress \
    | grep -q "TimeOfCall" || fail "compare"

"$OPMAP" compare --cubes="$DIR/d.opmc" --attribute=PhoneModel \
    --good=ph01 --bad=ph03 --class=dropped-while-in-progress --json \
    | grep -q '"ranked"' || fail "compare --json"

"$OPMAP" vsrest --cubes="$DIR/d.opmc" --attribute=TimeOfCall \
    --value=morning --class=dropped-while-in-progress \
    | grep -q "not(morning)" || fail "vsrest"

"$OPMAP" pairs --cubes="$DIR/d.opmc" --attribute=PhoneModel \
    --class=dropped-while-in-progress | grep -q "good vs bad" || fail "pairs"

"$OPMAP" gi --cubes="$DIR/d.opmc" | grep -q "Influential attributes" \
    || fail "gi"

# CSV ingestion path.
cat > "$DIR/t.csv" <<EOF
phone,rssi,result
a,-70,ok
a,-95,bad
b,-72,ok
b,-96,bad
a,-71,ok
b,-80,ok
a,-97,bad
b,-73,ok
EOF
"$OPMAP" csv2data --in="$DIR/t.csv" --class=result --out="$DIR/t.opmd" \
    | grep -q "discretized" || fail "csv2data"
"$OPMAP" cubes --data="$DIR/t.opmd" --out="$DIR/t.opmc" >/dev/null \
    || fail "cubes from csv data"

# Error paths exit non-zero with a message.
"$OPMAP" detail --cubes="$DIR/d.opmc" --attribute=NoSuch >/dev/null 2>&1 \
    && fail "bad attribute should fail"
"$OPMAP" compare --cubes="$DIR/d.opmc" --attribute=PhoneModel --good=ph01 \
    >/dev/null 2>&1 && fail "missing flags should fail"
"$OPMAP" overview --cubes="$DIR/does-not-exist" >/dev/null 2>&1 \
    && fail "missing file should fail"

# Retired v1/v2 files are refused as I/O errors (exit 3) that name the
# file and its version, on the mapped and the eager cube paths alike.
for spec in "OPMC 1 cubes" "OPMC 2 cubes" "OPMD 1 data" "OPMD 2 data"; do
  read -r magic version flag <<<"$spec"
  old="$DIR/old-$magic-$version.bin"
  { printf '%s' "$magic"; printf "\\x0$version\\x00\\x00\\x00"
    head -c 64 /dev/zero; } >"$old"
  for mmap in on off; do
    rc=0; err=$("$OPMAP" info --"$flag"="$old" --mmap=$mmap 2>&1) || rc=$?
    [ "$rc" -eq 3 ] || fail "info on a v$version $magic file should exit 3 (got $rc)"
    grep -q "'$old'.*version $version" <<<"$err" \
        || fail "v$version $magic error should name the file and version: $err"
  done
done

echo "PASS"

# HTML report generation (appended check; runs after the main PASS line is
# printed only if everything above succeeded).
"$OPMAP" report --cubes="$DIR/d.opmc" --attribute=PhoneModel --good=ph01 \
    --bad=ph03 --class=dropped-while-in-progress --out="$DIR/r.html" --gi \
    >/dev/null || fail "report"
grep -q "<svg" "$DIR/r.html" || fail "report svg content"
grep -q "General impressions" "$DIR/r.html" || fail "report gi section"

# report can also build the store in memory from --data, where
# --block-rows applies.
"$OPMAP" report --data="$DIR/d.opmd" --attribute=PhoneModel --good=ph01 \
    --bad=ph03 --class=dropped-while-in-progress --out="$DIR/r2.html" \
    --block-rows=512 >/dev/null || fail "report --data"
grep -q "<svg" "$DIR/r2.html" || fail "report --data svg content"
echo "PASS report"

# ---- zero-copy serving, query cache, mine ----

# Unknown flags exit 4 and name the offending flag, on every command.
rc=0; out=$("$OPMAP" overview --cubes="$DIR/d.opmc" --bogus=1 2>&1) || rc=$?
[ "$rc" -eq 4 ] || fail "unknown flag should exit 4 (got $rc)"
grep -q -- "--bogus" <<<"$out" || fail "unknown-flag error should name it"
rc=0; "$OPMAP" generate --records=10 --out="$DIR/x.opmd" --nope=1 \
    >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 4 ] || fail "generate unknown flag should exit 4 (got $rc)"
# --kernel: every tier builds a byte-identical store; invalid values exit
# 4 and name the flag. The default (no flag) resolves to the SIMD tier on
# machines that have it, so equality against the pinned tiers is also a
# live check of the runtime dispatch.
"$OPMAP" cubes --data="$DIR/d.opmd" --out="$DIR/kref.opmc" \
    --kernel=reference >/dev/null || fail "cubes --kernel=reference"
"$OPMAP" cubes --data="$DIR/d.opmd" --out="$DIR/kblk.opmc" \
    --kernel=blocked >/dev/null || fail "cubes --kernel=blocked"
"$OPMAP" cubes --data="$DIR/d.opmd" --out="$DIR/ksimd.opmc" \
    --kernel=simd >/dev/null || fail "cubes --kernel=simd"
cmp -s "$DIR/d.opmc" "$DIR/kref.opmc" || fail "--kernel=reference store differs"
cmp -s "$DIR/d.opmc" "$DIR/kblk.opmc" || fail "--kernel=blocked store differs"
cmp -s "$DIR/d.opmc" "$DIR/ksimd.opmc" || fail "--kernel=simd store differs"
# OPMAP_KERNEL env fallback: honored when no flag is passed, still
# byte-identical.
OPMAP_KERNEL=reference "$OPMAP" cubes --data="$DIR/d.opmd" \
    --out="$DIR/kenv.opmc" >/dev/null || fail "cubes OPMAP_KERNEL"
cmp -s "$DIR/d.opmc" "$DIR/kenv.opmc" || fail "OPMAP_KERNEL store differs"
rc=0; out=$("$OPMAP" mine --data="$DIR/d.opmd" --kernel=fast 2>&1) || rc=$?
[ "$rc" -eq 4 ] || fail "mine bad --kernel value should exit 4 (got $rc)"
grep -q "fast" <<<"$out" || fail "bad-kernel error should name the value"
rc=0; "$OPMAP" cubes --data="$DIR/d.opmd" --out="$DIR/x.opmc" \
    --kernel=warp9 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 4 ] || fail "cubes bad --kernel value should exit 4 (got $rc)"
"$OPMAP" mine --data="$DIR/d.opmd" --kernel=simd --top=3 \
    | grep -q "rules" || fail "mine --kernel=simd"

# --mmap=off (eager load) must serve byte-identical answers; bad values
# exit 4.
a=$("$OPMAP" compare --cubes="$DIR/d.opmc" --attribute=PhoneModel \
    --good=ph01 --bad=ph03 --class=dropped-while-in-progress)
b=$("$OPMAP" compare --cubes="$DIR/d.opmc" --attribute=PhoneModel \
    --good=ph01 --bad=ph03 --class=dropped-while-in-progress --mmap=off)
[ "$a" = "$b" ] || fail "--mmap=off changed the comparison output"
rc=0; "$OPMAP" overview --cubes="$DIR/d.opmc" --mmap=sideways \
    >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 4 ] || fail "--mmap=sideways should exit 4 (got $rc)"

# --verbose emits mapping and cache stats on stderr.
"$OPMAP" pairs --cubes="$DIR/d.opmc" --attribute=PhoneModel \
    --class=dropped-while-in-progress --cache-mb=8 --verbose \
    >/dev/null 2>"$DIR/stats.txt" || fail "pairs --cache-mb --verbose"
grep -q "serving: mapped=" "$DIR/stats.txt" || fail "verbose serving stats"
grep -q "cache: hits=" "$DIR/stats.txt" || fail "verbose cache stats"

# ---- observability: --stats and --trace-out ----

# --stats prints the metrics table on stderr; stdout stays the normal
# report. The compare path must surface its per-query latency histogram.
"$OPMAP" compare --cubes="$DIR/d.opmc" --attribute=PhoneModel \
    --good=ph01 --bad=ph03 --class=dropped-while-in-progress --stats \
    >"$DIR/cmp.out" 2>"$DIR/cmp.stats" || fail "compare --stats"
grep -q "TimeOfCall" "$DIR/cmp.out" || fail "compare --stats stdout"
grep -q -- "-- histograms" "$DIR/cmp.stats" || fail "stats histogram section"
grep -q "query.compare_us" "$DIR/cmp.stats" || fail "stats compare histogram"
grep -q "cache.hits\|cache.misses" "$DIR/cmp.stats" \
    || fail "stats cache counters"

# OPMAP_STATS env var is the flag-free fallback; OPMAP_STATS=0 stays off.
OPMAP_STATS=1 "$OPMAP" mine --data="$DIR/d.opmd" --min-support=0.001 --top=0 \
    >/dev/null 2>"$DIR/mine.stats" || fail "mine OPMAP_STATS"
grep -q "query.mine_us" "$DIR/mine.stats" || fail "stats mine histogram"
grep -q "car.rules_emitted" "$DIR/mine.stats" || fail "stats miner counters"
OPMAP_STATS=0 "$OPMAP" mine --data="$DIR/d.opmd" --min-support=0.001 --top=0 \
    >/dev/null 2>"$DIR/mine0.stats" || fail "mine OPMAP_STATS=0"
grep -q "query.mine_us" "$DIR/mine0.stats" && fail "OPMAP_STATS=0 printed"

# --trace-out writes a Chrome trace_event JSON with spans from the
# instrumented layers; parse it when python3 is available.
"$OPMAP" compare --cubes="$DIR/d.opmc" --attribute=PhoneModel \
    --good=ph01 --bad=ph03 --class=dropped-while-in-progress \
    --trace-out="$DIR/cmp.trace" >/dev/null || fail "compare --trace-out"
grep -q '"traceEvents"' "$DIR/cmp.trace" || fail "trace JSON header"
grep -q '"compare.query"' "$DIR/cmp.trace" || fail "trace compare span"
grep -q '"cache.lookup"' "$DIR/cmp.trace" || fail "trace cache span"
grep -q '"io.\|"cube.' "$DIR/cmp.trace" || fail "trace io/cube spans"
"$OPMAP" mine --data="$DIR/d.opmd" --min-support=0.001 --top=0 \
    --trace-out="$DIR/mine.trace" >/dev/null || fail "mine --trace-out"
grep -q '"car.mine"' "$DIR/mine.trace" || fail "trace mine span"
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; t=json.load(open(sys.argv[1])); \
assert t['traceEvents'], 'empty trace'; \
assert all(e['dur'] >= 0 and e['ts'] >= 0 for e in t['traceEvents'])" \
      "$DIR/cmp.trace" || fail "compare trace does not parse"
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      "$DIR/mine.trace" || fail "mine trace does not parse"
fi
echo "PASS observability"

# mine: the CAR miner from the CLI; any --block-rows tile size yields the
# identical rule list.
m0=$("$OPMAP" mine --data="$DIR/d.opmd" --min-support=0.001 --top=5) \
    || fail "mine"
grep -q "mined " <<<"$m0" || fail "mine summary line"
m7=$("$OPMAP" mine --data="$DIR/d.opmd" --min-support=0.001 --top=5 \
    --block-rows=7) || fail "mine --block-rows"
[ "$m0" = "$m7" ] || fail "mine --block-rows=7 changed the rules"
echo "PASS serving"

# ---- streaming ingestion ----

# Fresh directory: the CSV schema (forced all-categorical) becomes the
# store schema; appends go WAL-first with auto-compaction.
out=$("$OPMAP" ingest --dir="$DIR/ing" --csv="$DIR/t.csv" --class=result \
    --batch-rows=3 --compact-every=2 --verbose 2>"$DIR/ing.stats") \
    || fail "ingest fresh"
grep -q "ingested 8 rows in 3 batches" <<<"$out" || fail "ingest summary"
[ -f "$DIR/ing/MANIFEST" ] || fail "ingest manifest missing"
grep -q "wal: next_seq=" "$DIR/ing.stats" || fail "ingest verbose wal line"
grep -q "compaction: generation=" "$DIR/ing.stats" \
    || fail "ingest verbose compaction line"
grep -q "torn_tail=clean" "$DIR/ing.stats" || fail "ingest clean tail"

# Existing directory: --class comes from the stored schema, and the CSV is
# re-encoded against the stored dictionaries; the WAL tail is replayed.
out=$("$OPMAP" ingest --dir="$DIR/ing" --csv="$DIR/t.csv" --verbose \
    2>"$DIR/ing2.stats") || fail "ingest reopen"
grep -q "seq 4..4" <<<"$out" || fail "ingest reopen continues sequence"
grep -q "replayed_records=1" "$DIR/ing2.stats" || fail "ingest replay count"

# Flag validation: unknown flags and bad values exit 4 naming the problem.
rc=0; out=$("$OPMAP" ingest --dir="$DIR/ing" --csv="$DIR/t.csv" \
    --bogus=1 2>&1) || rc=$?
[ "$rc" -eq 4 ] || fail "ingest unknown flag should exit 4 (got $rc)"
grep -q -- "--bogus" <<<"$out" || fail "ingest unknown-flag should name it"
rc=0; out=$("$OPMAP" ingest --dir="$DIR/ing" --csv="$DIR/t.csv" \
    --fsync=sometimes 2>&1) || rc=$?
[ "$rc" -eq 4 ] || fail "ingest --fsync=sometimes should exit 4 (got $rc)"
grep -q "sometimes" <<<"$out" || fail "ingest bad fsync should name value"
rc=0; "$OPMAP" ingest --dir="$DIR/ing" --csv="$DIR/t.csv" --batch-rows=0 \
    >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 4 ] || fail "ingest --batch-rows=0 should exit 4 (got $rc)"
echo "PASS ingest"

# ---- serving daemon ----

# Start opmapd on a unix socket, replay a short mixed workload over
# concurrent connections, then drain with SIGTERM. The loadgen summary
# and the daemon's drain behavior are both asserted.
"$OPMAP" serve --cubes="$DIR/d.opmc" --listen="unix:$DIR/opmapd.sock" \
    --verbose >"$DIR/serve.out" 2>"$DIR/serve.err" &
SERVE_PID=$!
for _ in $(seq 100); do
  grep -q "opmapd listening" "$DIR/serve.out" 2>/dev/null && break
  sleep 0.1
done
grep -q "opmapd listening on unix:$DIR/opmapd.sock" "$DIR/serve.out" \
    || { cat "$DIR/serve.err" >&2; fail "serve did not come up"; }

out=$("$OPMAP" loadgen --connect="unix:$DIR/opmapd.sock" --clients=2 \
    --requests=200 --duration=30) || fail "loadgen"
grep -qE "loadgen: [0-9]+ ok, [0-9]+ error, [0-9]+ shed" <<<"$out" \
    || fail "loadgen summary line"
grep -qE "^compare +[0-9]+ +[0-9]+" <<<"$out" \
    || fail "loadgen per-op latency table"

# Graceful drain: SIGTERM answers in-flight work, flushes and exits 0.
kill -TERM "$SERVE_PID"
rc=0; wait "$SERVE_PID" || rc=$?
[ "$rc" -eq 0 ] || fail "serve should drain and exit 0 on SIGTERM (got $rc)"
grep -q "drained" "$DIR/serve.err" || fail "serve verbose drain line"
[ -S "$DIR/opmapd.sock" ] && fail "serve left its unix socket behind"

# Flag validation matches the other subcommands.
rc=0; "$OPMAP" serve --cubes="$DIR/d.opmc" --bogus=1 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 4 ] || fail "serve unknown flag should exit 4 (got $rc)"
rc=0; "$OPMAP" loadgen --connect="unix:$DIR/nope.sock" --duration=0.2 \
    >/dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] || fail "loadgen against a dead socket should fail"
# loadgen is closed-loop only: the open-loop flags are gone.
rc=0; out=$("$OPMAP" loadgen --connect="unix:$DIR/nope.sock" --sweep=1 \
    2>&1) || rc=$?
[ "$rc" -eq 4 ] || fail "loadgen --sweep should exit 4 (got $rc)"
grep -q -- "--sweep" <<<"$out" || fail "loadgen --sweep should name it"
echo "PASS serve"

# ---- multi-loop daemon ----

# Sharded event loops on TCP (port 0 = OS-assigned).
"$OPMAP" serve --cubes="$DIR/d.opmc" --listen=127.0.0.1:0 --loops=2 \
    --verbose >"$DIR/serve2.out" 2>"$DIR/serve2.err" &
SERVE2_PID=$!
for _ in $(seq 100); do
  grep -q "opmapd listening" "$DIR/serve2.out" 2>/dev/null && break
  sleep 0.1
done
ADDR=$(awk '/opmapd listening on/ {print $4}' "$DIR/serve2.out")
[ -n "$ADDR" ] || { cat "$DIR/serve2.err" >&2; fail "loops=2 serve up"; }
grep -q "2 loops" "$DIR/serve2.err" || fail "serve2 verbose loop count"

out=$("$OPMAP" loadgen --connect="$ADDR" --clients=2 --requests=100 \
    --duration=30 --mix=ping:1) || fail "loadgen over 2-loop TCP"
grep -qE "^ping +[0-9]+ +[0-9]+" <<<"$out" \
    || fail "loadgen over 2-loop TCP per-op table"

kill -TERM "$SERVE2_PID"
rc=0; wait "$SERVE2_PID" || rc=$?
[ "$rc" -eq 0 ] || fail "loops=2 serve should drain and exit 0 (got $rc)"
echo "PASS multi-loop"

# ---- ingest -> live daemon reload drill ----

# Serve the streaming directory's current container, ingest more rows
# with --notify, and assert the daemon reloaded the freshly compacted
# generation without restarting.
ING_CUBE=$(ls "$DIR/ing"/cubes-*.opmc | sort | tail -1)
"$OPMAP" serve --cubes="$ING_CUBE" --listen="unix:$DIR/opmapd2.sock" \
    --verbose >"$DIR/serve3.out" 2>"$DIR/serve3.err" &
SERVE3_PID=$!
for _ in $(seq 100); do
  grep -q "opmapd listening" "$DIR/serve3.out" 2>/dev/null && break
  sleep 0.1
done
grep -q "opmapd listening" "$DIR/serve3.out" \
    || { cat "$DIR/serve3.err" >&2; fail "ingest-drill serve up"; }

out=$("$OPMAP" ingest --dir="$DIR/ing" --csv="$DIR/t.csv" \
    --notify="unix:$DIR/opmapd2.sock") || fail "ingest --notify"
grep -q "notified unix:$DIR/opmapd2.sock" <<<"$out" \
    || fail "ingest --notify confirmation line"
grep -q "opmapd: reloaded $DIR/ing/cubes-" "$DIR/serve3.err" \
    || fail "daemon did not log the notified reload"

kill -TERM "$SERVE3_PID"
rc=0; wait "$SERVE3_PID" || rc=$?
[ "$rc" -eq 0 ] || fail "ingest-drill serve should exit 0 (got $rc)"
echo "PASS ingest notify"

# ---- unix peer-credential auth ----

# Our own uid on the allow list: requests flow.
"$OPMAP" serve --cubes="$DIR/d.opmc" --listen="unix:$DIR/auth.sock" \
    --allow-uid="$(id -u)" >"$DIR/serve4.out" 2>"$DIR/serve4.err" &
SERVE4_PID=$!
for _ in $(seq 100); do
  grep -q "opmapd listening" "$DIR/serve4.out" 2>/dev/null && break
  sleep 0.1
done
"$OPMAP" loadgen --connect="unix:$DIR/auth.sock" --clients=1 \
    --requests=5 --duration=5 --mix=ping:1 >/dev/null \
    || fail "allowed uid should be served"
kill -TERM "$SERVE4_PID"; wait "$SERVE4_PID" || fail "auth serve exit"

# A different uid: the connection is answered with a status frame and
# closed, so the client fails instead of hanging.
"$OPMAP" serve --cubes="$DIR/d.opmc" --listen="unix:$DIR/auth.sock" \
    --allow-uid=4294967294 >"$DIR/serve5.out" 2>"$DIR/serve5.err" &
SERVE5_PID=$!
for _ in $(seq 100); do
  grep -q "opmapd listening" "$DIR/serve5.out" 2>/dev/null && break
  sleep 0.1
done
rc=0; "$OPMAP" loadgen --connect="unix:$DIR/auth.sock" --clients=1 \
    --requests=5 --duration=5 --mix=ping:1 >/dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] || fail "disallowed uid should be rejected"
kill -TERM "$SERVE5_PID"; wait "$SERVE5_PID" || fail "auth-reject serve exit"

# --allow-uid needs peer credentials, which TCP does not carry.
rc=0; "$OPMAP" serve --cubes="$DIR/d.opmc" --listen=127.0.0.1:0 \
    --allow-uid=0 >/dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] || fail "serve --allow-uid over TCP should fail"
echo "PASS peer auth"
