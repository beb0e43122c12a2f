#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the sx4d daemon: boot it on an
# ephemeral port, probe /healthz, submit the canonical /v1/run query
# twice, diff the body against the committed golden artifact, and
# require the repeat to be an exact cache hit; then post one small
# /v1/capacity query twice and require two 200s, identical bytes and a
# cache hit on the repeat. Run from the repository root (make
# serve-smoke does); requires curl.
set -eu

BIN=${SX4D:-bin/sx4d}
GOLDEN=internal/check/testdata/goldens/serve.golden
WORK=$(mktemp -d)
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

[ -x "$BIN" ] || { echo "serve-smoke: $BIN not built" >&2; exit 1; }
[ -f "$GOLDEN" ] || { echo "serve-smoke: golden $GOLDEN missing" >&2; exit 1; }

"$BIN" -addr 127.0.0.1:0 -portfile "$WORK/port" &
PID=$!

# Wait for the daemon to publish its bound address.
i=0
while [ ! -s "$WORK/port" ]; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { echo "serve-smoke: daemon never published its port" >&2; exit 1; }
    kill -0 "$PID" 2>/dev/null || { echo "serve-smoke: daemon exited early" >&2; exit 1; }
    sleep 0.1
done
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

echo "serve-smoke: ok ($ADDR: healthz, golden /v1/run, exact cache hits on /v1/run and /v1/capacity)"
