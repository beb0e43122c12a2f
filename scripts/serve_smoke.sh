#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the sx4d daemon: boot it on an
# ephemeral port, probe /healthz, submit the canonical /v1/run query
# twice, diff the body against the committed golden artifact, and
# require the repeat to be an exact cache hit; then post one small
# /v1/capacity query twice and require two 200s, identical bytes and a
# cache hit on the repeat. Last, boot a second daemon with a small
# -cachebytes, sweep a few hundred distinct queries through it, and
# require the first query, asked again, to return the same bytes while
# /v1/stats shows evictions and a cache within its budget. Run from
# the repository root (make serve-smoke does); requires curl.
set -eu

BIN=${SX4D:-bin/sx4d}
GOLDEN=internal/check/testdata/goldens/serve.golden
WORK=$(mktemp -d)
PID=""
PID2=""
trap 'kill $PID $PID2 2>/dev/null || true; wait $PID $PID2 2>/dev/null || true; rm -rf "$WORK"' EXIT

[ -x "$BIN" ] || { echo "serve-smoke: $BIN not built" >&2; exit 1; }
[ -f "$GOLDEN" ] || { echo "serve-smoke: golden $GOLDEN missing" >&2; exit 1; }

# boot <portfile> [flags...] starts a daemon in the background (its pid
# in BOOTED) and waits for it to publish its bound address.
boot() {
    portfile=$1
    shift
    "$BIN" -addr 127.0.0.1:0 -portfile "$portfile" "$@" &
    BOOTED=$!
    i=0
    while [ ! -s "$portfile" ]; do
        i=$((i + 1))
        [ "$i" -le 50 ] || { echo "serve-smoke: daemon never published its port" >&2; exit 1; }
        kill -0 "$BOOTED" 2>/dev/null || { echo "serve-smoke: daemon exited early" >&2; exit 1; }
        sleep 0.1
    done
}

# stat <field> <stats-json-file> prints one numeric /v1/stats field.
stat() {
    sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p" "$2"
}

boot "$WORK/port"
PID=$BOOTED
ADDR=$(cat "$WORK/port")

curl -sSf "http://$ADDR/healthz" | grep -q '"status":"ok"' \
    || { echo "serve-smoke: healthz probe failed" >&2; exit 1; }

curl -sSf -D "$WORK/h1" -o "$WORK/run1" \
    -d '{"machine":"sx4-32"}' "http://$ADDR/v1/run"
diff -u "$GOLDEN" "$WORK/run1" \
    || { echo "serve-smoke: /v1/run body diverged from $GOLDEN" >&2; exit 1; }

curl -sSf -D "$WORK/h2" -o "$WORK/run2" \
    -d '{"machine":"sx4-32"}' "http://$ADDR/v1/run"
cmp -s "$WORK/run1" "$WORK/run2" \
    || { echo "serve-smoke: repeat query returned different bytes" >&2; exit 1; }
grep -qi '^x-sx4d-cache: hit' "$WORK/h2" \
    || { echo "serve-smoke: repeat query was not a cache hit" >&2; exit 1; }

CAPACITY='{"fleet":"c90","scenarios":2,"seed":5}'
for n in 1 2; do
    code=$(curl -sS -D "$WORK/ch$n" -o "$WORK/cap$n" -w '%{http_code}' \
        -d "$CAPACITY" "http://$ADDR/v1/capacity")
    [ "$code" = 200 ] \
        || { echo "serve-smoke: /v1/capacity answered $code: $(cat "$WORK/cap$n")" >&2; exit 1; }
done
cmp -s "$WORK/cap1" "$WORK/cap2" \
    || { echo "serve-smoke: repeat capacity query returned different bytes" >&2; exit 1; }
grep -qi '^x-sx4d-cache: hit' "$WORK/ch2" \
    || { echo "serve-smoke: repeat capacity query was not a cache hit" >&2; exit 1; }

# A budget of 128 KiB leaves the response cache 96 KiB, 768 bytes per
# shard generation: the 384 one-member answers below (about 300
# budgeted bytes each) cannot all stay.
BUDGET=131072
boot "$WORK/port2" -cachebytes "$BUDGET"
PID2=$BOOTED
ADDR2=$(cat "$WORK/port2")
: > "$WORK/sweep.ndjson"
for b in PARANOIA ELEFUNT COPY IA XPOSE RFFT VFFT RADABS; do
    for spec in sx4-32:32 c90:16; do
        m=${spec%:*}
        c=1
        while [ "$c" -le "${spec#*:}" ]; do
            printf '{"machine":"%s","benchmarks":["%s"],"cpus":%d}\n' "$m" "$b" "$c" >> "$WORK/sweep.ndjson"
            c=$((c + 1))
        done
    done
done
curl -sSf -o "$WORK/sweep.out" --data-binary @"$WORK/sweep.ndjson" "http://$ADDR2/v1/sweep"
[ "$(wc -l < "$WORK/sweep.out")" -eq "$(wc -l < "$WORK/sweep.ndjson")" ] \
    || { echo "serve-smoke: sweep answered $(wc -l < "$WORK/sweep.out") of $(wc -l < "$WORK/sweep.ndjson") lines" >&2; exit 1; }
if grep -q '"error"' "$WORK/sweep.out"; then
    echo "serve-smoke: sweep line failed: $(grep -m1 '"error"' "$WORK/sweep.out")" >&2
    exit 1
fi
head -n 1 "$WORK/sweep.ndjson" > "$WORK/first.json"
head -n 1 "$WORK/sweep.out" > "$WORK/first.want"
curl -sSf -o "$WORK/first.got" --data-binary @"$WORK/first.json" "http://$ADDR2/v1/run"
cmp -s "$WORK/first.want" "$WORK/first.got" \
    || { echo "serve-smoke: first sweep query answered different bytes after eviction" >&2; exit 1; }
curl -sSf -o "$WORK/stats2" "http://$ADDR2/v1/stats"
EVICTIONS=$(stat cache_evictions "$WORK/stats2")
HELD=$(stat cache_bytes "$WORK/stats2")
[ "${EVICTIONS:-0}" -gt 0 ] \
    || { echo "serve-smoke: no evictions at -cachebytes $BUDGET: $(cat "$WORK/stats2")" >&2; exit 1; }
[ -n "$HELD" ] && [ "$HELD" -le "$BUDGET" ] \
    || { echo "serve-smoke: cache holds ${HELD:-?} bytes, budget $BUDGET" >&2; exit 1; }

echo "serve-smoke: ok ($ADDR: healthz, golden /v1/run, exact cache hits on /v1/run and /v1/capacity;" \
    "$ADDR2: $EVICTIONS evictions, $HELD of $BUDGET bytes, same bytes after eviction)"
