#!/usr/bin/env bash
# Smoke test for the analysis service: start `pinpoint serve`, wait for
# readiness, POST every example program, and assert that the reports come
# back and the /v1/metrics exposition carries non-zero detect.* counters.
# Used by CI's serve-smoke job and runnable locally.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${PINPOINT_SMOKE_ADDR:-127.0.0.1:7431}"
BASE="http://$ADDR"
tmpdir="$(mktemp -d "${TMPDIR:-/tmp}/pinpoint-smoke.XXXXXX")"
server_pid=""
cleanup() {
  status=$?
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$tmpdir"
  if [ "$status" -ne 0 ]; then
    echo "serve_smoke.sh: FAILED (exit $status)" >&2
    [ -f "$tmpdir/serve.log" ] || true
  fi
  exit "$status"
}
trap cleanup EXIT

echo "== build"
go build -o "$tmpdir/pinpoint" ./cmd/pinpoint

echo "== start serve on $ADDR (flight recorder + SLO on)"
"$tmpdir/pinpoint" serve -addr "$ADDR" -log-json \
  -ts-interval 200ms -ts-retention 1m \
  -slo-target 30s -slo-p 0.9 -slo-fast 30s -slo-slow 2m \
  >"$tmpdir/serve.log" 2>&1 &
server_pid=$!

# Wait for readiness (the binary is prebuilt, so this is fast).
ready=""
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/v1/ready" >/dev/null 2>&1; then ready=1; break; fi
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "serve_smoke.sh: server exited during startup" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$ready" ]; then
  echo "serve_smoke.sh: server never became ready" >&2
  cat "$tmpdir/serve.log" >&2
  exit 1
fi

echo "== POST /v1/analyze (all examples, witness on)"
go run ./scripts/mkreq -checkers all -witness examples/mc/*.mc >"$tmpdir/req.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary @"$tmpdir/req.json" "$BASE/v1/analyze" >"$tmpdir/resp.json"
go run ./scripts/jsoncheck "$tmpdir/resp.json"
grep -q '"traceId"' "$tmpdir/resp.json"
grep -q '"provenance"' "$tmpdir/resp.json"
if grep -q '"reports": \[\]' "$tmpdir/resp.json"; then
  echo "serve_smoke.sh: examples produced no reports" >&2
  exit 1
fi

echo "== per-request timing breakdown (second /v1/analyze)"
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary @"$tmpdir/req.json" "$BASE/v1/analyze" >"$tmpdir/resp_v1.json"
go run ./scripts/jsoncheck "$tmpdir/resp_v1.json"
for field in totalNs decodeNs queueWaitNs sessionWaitNs buildNs parseNs \
             storeLoadNs storeSaveNs detectNs smtNs otherNs; do
  if ! grep -q "\"$field\"" "$tmpdir/resp_v1.json"; then
    echo "serve_smoke.sh: timing field $field missing from /v1/analyze response" >&2
    exit 1
  fi
done
# The handler measured real work, so the total must be positive.
if grep -q '"totalNs": 0,' "$tmpdir/resp_v1.json"; then
  echo "serve_smoke.sh: timing.totalNs is zero" >&2
  exit 1
fi
# Byte-compat: a request with no project field gets a response with no
# project field.
if grep -q '"project"' "$tmpdir/resp_v1.json"; then
  echo "serve_smoke.sh: project key leaked into a project-less response" >&2
  exit 1
fi

echo "== POST /v1/analyze (tenant project=alpha)"
go run ./scripts/mkreq -checkers all -project alpha examples/mc/*.mc >"$tmpdir/req_alpha.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary @"$tmpdir/req_alpha.json" "$BASE/v1/analyze" >"$tmpdir/resp_alpha.json"
go run ./scripts/jsoncheck "$tmpdir/resp_alpha.json"
if ! grep -q '"project": "alpha"' "$tmpdir/resp_alpha.json"; then
  echo "serve_smoke.sh: response did not echo project=alpha" >&2
  exit 1
fi

echo "== scrape /v1/metrics"
curl -fsS "$BASE/v1/metrics" >"$tmpdir/metrics.txt"
for metric in pinpoint_detect_reports pinpoint_detect_tasks pinpoint_server_requests; do
  value="$(awk -v m="$metric" '$1 == m { print $2 }' "$tmpdir/metrics.txt")"
  if [ -z "$value" ] || [ "$value" = "0" ]; then
    echo "serve_smoke.sh: metric $metric missing or zero (got '${value:-<absent>}')" >&2
    exit 1
  fi
  echo "   $metric = $value"
done
# Phase-attributed histograms are labeled per (phase, tenant); assert the
# family carries both tenants' series for a few phases.
for phase in build detect smt; do
  for tenant in default alpha; do
    if ! grep -q "pinpoint_server_phase_ns_count{phase=\"$phase\",tenant=\"$tenant\"}" "$tmpdir/metrics.txt"; then
      echo "serve_smoke.sh: phase histogram for phase=$phase tenant=$tenant missing from /v1/metrics" >&2
      exit 1
    fi
  done
done
# The tenant layer's own occupancy metrics: two resident sessions.
resident="$(awk '$1 == "pinpoint_tenant_resident" { print $2 }' "$tmpdir/metrics.txt")"
if [ "$resident" != "2" ]; then
  echo "serve_smoke.sh: pinpoint_tenant_resident = '${resident:-<absent>}', want 2" >&2
  exit 1
fi
for gauge in pinpoint_server_queue_depth pinpoint_server_inflight; do
  if ! grep -q "^# TYPE $gauge gauge" "$tmpdir/metrics.txt"; then
    echo "serve_smoke.sh: gauge $gauge missing from /v1/metrics" >&2
    exit 1
  fi
done

echo "== debug endpoints"
curl -fsS "$BASE/v1/debug/tenants" >"$tmpdir/tenants.json"
go run ./scripts/jsoncheck "$tmpdir/tenants.json"
for project in default alpha; do
  if ! grep -q "\"project\": \"$project\"" "$tmpdir/tenants.json"; then
    echo "serve_smoke.sh: /v1/debug/tenants missing project $project" >&2
    exit 1
  fi
done
curl -fsS "$BASE/v1/debug/inflight" | go run ./scripts/jsoncheck /dev/stdin
curl -fsS "$BASE/v1/health" >/dev/null
# Every route lives under /v1/ only; the retired spellings must not answer.
for path in /analyze /healthz /readyz /metrics /v1/healthz /v1/readyz; do
  code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE$path")
  if [ "$code" != 404 ]; then
    echo "serve_smoke.sh: retired route $path answered $code, want 404" >&2
    exit 1
  fi
done

echo "== flight recorder: /v1/debug/timeseries"
# The sampler ticks every 200ms; poll until the phase histograms have at
# least two retained points (two distinct sample timestamps).
ts_ok=""
for _ in $(seq 1 50); do
  curl -fsS "$BASE/v1/debug/timeseries?metric=server.phase_ns" >"$tmpdir/timeseries.json"
  points="$(grep -o '"t":' "$tmpdir/timeseries.json" | wc -l)"
  if grep -q '"enabled": true' "$tmpdir/timeseries.json" && [ "$points" -ge 2 ]; then
    ts_ok=1; break
  fi
  sleep 0.2
done
if [ -z "$ts_ok" ]; then
  echo "serve_smoke.sh: /v1/debug/timeseries never accumulated >=2 points for server.phase_ns" >&2
  cat "$tmpdir/timeseries.json" >&2
  exit 1
fi
go run ./scripts/jsoncheck "$tmpdir/timeseries.json"
grep -q '"base": "server.phase_ns"' "$tmpdir/timeseries.json"
echo "   $points ring points for server.phase_ns"

echo "== flight recorder: /v1/debug/costs"
curl -fsS "$BASE/v1/debug/costs" >"$tmpdir/costs.json"
go run ./scripts/jsoncheck "$tmpdir/costs.json"
for project in default alpha; do
  if ! grep -q "\"project\": \"$project\"" "$tmpdir/costs.json"; then
    echo "serve_smoke.sh: /v1/debug/costs missing project $project" >&2
    exit 1
  fi
done
if ! grep -q '"cpuNs": [1-9]' "$tmpdir/costs.json"; then
  echo "serve_smoke.sh: /v1/debug/costs attributes no CPU to any tenant" >&2
  exit 1
fi

echo "== flight recorder: /v1/debug/slo"
curl -fsS "$BASE/v1/debug/slo" >"$tmpdir/slo.json"
go run ./scripts/jsoncheck "$tmpdir/slo.json"
grep -q '"enabled": true' "$tmpdir/slo.json"
grep -q '"burnRate"' "$tmpdir/slo.json"
if ! grep -q '"requests": [1-9]' "$tmpdir/slo.json"; then
  echo "serve_smoke.sh: /v1/debug/slo counted no analyze requests" >&2
  exit 1
fi
# The burn gauges ride /v1/metrics once the sampler hook has run.
curl -fsS "$BASE/v1/metrics" >"$tmpdir/metrics2.txt"
grep -q 'pinpoint_server_slo_burn_rate{window="fast"}' "$tmpdir/metrics2.txt"

echo "== graceful shutdown"
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""
echo "serve_smoke.sh: OK"
