#!/bin/sh
# warm_restart_smoke.sh — end-to-end proof that the sx4d cache survives
# a restart, driven through the resilient sx4ctl client: boot a daemon
# with a snapshot file, answer the canonical query (a miss), stop the
# daemon (SIGTERM → graceful drain → on-drain snapshot), boot a second
# daemon from the same snapshot, and require the same query to be an
# exact cache hit with a byte-identical body. Doubles as the sx4ctl
# single-binary smoke: every query goes through the client's retry
# loop, and the first post-boot query exercises retry-on-503/refused
# while the daemon is still coming up. The first life also sweeps a
# few hundred distinct queries, and a third life boots from the same
# snapshot under a small -cachebytes: it must restore only what its
# budget holds, and report exactly that many restored entries. Run
# from the repository root (make warm-restart-smoke does).
set -eu

SX4D=${SX4D:-bin/sx4d}
SX4CTL=${SX4CTL:-bin/sx4ctl}
WORK=$(mktemp -d)
PID=""
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

[ -x "$SX4D" ] || { echo "warm-restart-smoke: $SX4D not built" >&2; exit 1; }
[ -x "$SX4CTL" ] || { echo "warm-restart-smoke: $SX4CTL not built" >&2; exit 1; }

SNAP="$WORK/cache.snap"

boot() {
    : > "$WORK/port"
    "$SX4D" -addr 127.0.0.1:0 -portfile "$WORK/port" -cache "$SNAP" "$@" &
    PID=$!
    i=0
    while [ ! -s "$WORK/port" ]; do
        i=$((i + 1))
        [ "$i" -le 50 ] || { echo "warm-restart-smoke: daemon never published its port" >&2; exit 1; }
        kill -0 "$PID" 2>/dev/null || { echo "warm-restart-smoke: daemon exited early" >&2; exit 1; }
        sleep 0.1
    done
    ADDR=$(cat "$WORK/port")
}

# First life: the canonical query executes fresh.
boot
"$SX4CTL" -addr "http://$ADDR" run -machine sx4-32 -benchmarks COPY,IA -expect-cache miss > "$WORK/first" \
    || { echo "warm-restart-smoke: first query failed or was not a miss" >&2; exit 1; }
: > "$WORK/sweep.ndjson"
for b in PARANOIA ELEFUNT COPY IA XPOSE RFFT VFFT RADABS; do
    c=1
    while [ "$c" -le 32 ]; do
        printf '{"machine":"sx4-32","benchmarks":["%s"],"cpus":%d}\n' "$b" "$c" >> "$WORK/sweep.ndjson"
        c=$((c + 1))
    done
done
"$SX4CTL" -addr "http://$ADDR" sweep < "$WORK/sweep.ndjson" > "$WORK/sweep.out" \
    || { echo "warm-restart-smoke: sweep failed" >&2; exit 1; }

# Graceful stop: SIGTERM drains and writes the snapshot.
kill -TERM "$PID"
wait "$PID" || { echo "warm-restart-smoke: daemon did not stop cleanly" >&2; exit 1; }
PID=""
[ -s "$SNAP" ] || { echo "warm-restart-smoke: no snapshot written on drain" >&2; exit 1; }

# Second life: the same query must be answered from the restored cache,
# byte-identically, on the first ask.
boot
"$SX4CTL" -addr "http://$ADDR" run -machine sx4-32 -benchmarks COPY,IA -expect-cache hit > "$WORK/second" \
    || { echo "warm-restart-smoke: post-restart query was not a cache hit" >&2; exit 1; }
cmp -s "$WORK/first" "$WORK/second" \
    || { echo "warm-restart-smoke: post-restart body diverged" >&2; exit 1; }

# The daemon knows it warm-started.
"$SX4CTL" -addr "http://$ADDR" stats | grep -q 'warm_start=true' \
    || { echo "warm-restart-smoke: stats do not report warm start" >&2; exit 1; }

kill -TERM "$PID"
wait "$PID" || true
PID=""

# Third life: the same snapshot under a budget far below it. A budget
# of 64 KiB leaves the response cache 48 KiB, 384 bytes per shard
# generation, so only some of the snapshot's entries fit; those are
# the ones restored, and the only ones counted.
SAVED=$(grep -c '^entry ' "$SNAP")
BUDGET=65536
boot -cachebytes "$BUDGET"
"$SX4CTL" -addr "http://$ADDR" stats > "$WORK/stats3" \
    || { echo "warm-restart-smoke: stats failed after budgeted boot" >&2; exit 1; }
field() {
    sed -n "s/.* $1=\([0-9]*\).*/\1/p" "$WORK/stats3"
}
ENTRIES=$(field entries)
RESTORED=$(field restored)
HELD=$(field bytes)
[ -n "$RESTORED" ] && [ "$RESTORED" -gt 0 ] && [ "$RESTORED" -lt "$SAVED" ] \
    || { echo "warm-restart-smoke: restored ${RESTORED:-?} of $SAVED snapshot entries at -cachebytes $BUDGET" >&2; exit 1; }
[ "$RESTORED" -eq "$ENTRIES" ] \
    || { echo "warm-restart-smoke: restored_entries=$RESTORED but the cache holds $ENTRIES" >&2; exit 1; }
[ "$HELD" -le "$BUDGET" ] \
    || { echo "warm-restart-smoke: budgeted boot holds $HELD bytes, budget $BUDGET" >&2; exit 1; }

kill -TERM "$PID"
wait "$PID" || true
PID=""

echo "warm-restart-smoke: ok (cache survived SIGTERM restart; sx4ctl verified hit + byte-identical body;" \
    "a $BUDGET-byte boot restored $RESTORED of $SAVED entries, all held)"
