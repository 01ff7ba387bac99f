#!/usr/bin/env bash
# Load gate for the analysis service: start `pinpoint serve`, run a short
# pinpointbench closed-loop burst against it, and assert zero errors and a
# non-empty latency distribution. Leaves the per-request CSV and the JSON
# summary in $PINPOINT_LOAD_OUT (default: a temp dir) for artifact upload.
# Used by CI's serve-load job and runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${PINPOINT_LOAD_ADDR:-127.0.0.1:7432}"
BASE="http://$ADDR"
REQUESTS="${PINPOINT_LOAD_REQUESTS:-12}"
SCALE="${PINPOINT_LOAD_SCALE:-10}"
outdir="${PINPOINT_LOAD_OUT:-}"
tmpdir="$(mktemp -d "${TMPDIR:-/tmp}/pinpoint-load.XXXXXX")"
[ -n "$outdir" ] || outdir="$tmpdir"
mkdir -p "$outdir"
server_pid=""
cleanup() {
  status=$?
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$tmpdir"
  if [ "$status" -ne 0 ]; then
    echo "serve_load.sh: FAILED (exit $status)" >&2
  fi
  exit "$status"
}
trap cleanup EXIT

echo "== build"
go build -o "$tmpdir/pinpoint" ./cmd/pinpoint
go build -o "$tmpdir/pinpointbench" ./cmd/pinpointbench

echo "== start serve on $ADDR"
"$tmpdir/pinpoint" serve -addr "$ADDR" -log-json >"$tmpdir/serve.log" 2>&1 &
server_pid=$!
ready=""
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/v1/ready" >/dev/null 2>&1; then ready=1; break; fi
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "serve_load.sh: server exited during startup" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$ready" ]; then
  echo "serve_load.sh: server never became ready" >&2
  cat "$tmpdir/serve.log" >&2
  exit 1
fi

SLO_TARGET="${PINPOINT_LOAD_SLO:-30s}"
MAX_BURN="${PINPOINT_LOAD_MAX_BURN:-1}"
echo "== pinpointbench burst ($REQUESTS requests, scale $SCALE, SLO p95<=$SLO_TARGET, max burn $MAX_BURN)"
# pinpointbench exits nonzero if any request failed, or if the run's SLO
# burn rate exceeds -slo-max-burn — so this line is both the zero-errors
# assertion and the latency-objective gate.
"$tmpdir/pinpointbench" -addr "$BASE" -scenario burst \
  -requests "$REQUESTS" -scale "$SCALE" -duration 60s \
  -slo-target "$SLO_TARGET" -slo-p 0.95 -slo-max-burn "$MAX_BURN" \
  -csv "$outdir/load_samples.csv" -json "$outdir/load_summary.json"

echo "== validate output"
go run ./scripts/jsoncheck "$outdir/load_summary.json"
# Non-empty latency: the summary must carry a positive p50.
p50="$(grep -A8 '"latencyNs"' "$outdir/load_summary.json" | awk -F': ' '/"p50"/ { gsub(/,/, "", $2); print $2; exit }')"
if [ -z "$p50" ] || [ "$p50" -le 0 ]; then
  echo "serve_load.sh: latency p50 missing or zero (got '${p50:-<absent>}')" >&2
  exit 1
fi
echo "   p50 = ${p50}ns"
rows="$(wc -l <"$outdir/load_samples.csv")"
if [ "$rows" -le 1 ]; then
  echo "serve_load.sh: sample CSV has no data rows" >&2
  exit 1
fi
echo "   $((rows - 1)) sample rows"
# The SLO evaluation must be present in the JSON summary (the burn-rate
# gate above already enforced its value).
if ! grep -q '"burnRate"' "$outdir/load_summary.json"; then
  echo "serve_load.sh: summary JSON carries no SLO burn rate" >&2
  exit 1
fi

echo "== graceful shutdown"
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""
echo "serve_load.sh: OK"
