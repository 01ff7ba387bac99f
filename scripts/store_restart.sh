#!/usr/bin/env bash
# Tenant round trip for the persistent store: start `pinpoint serve` with a
# -store-dir and -max-tenants 1, analyze two projects so admitting each one
# evicts (and persists) the other, re-admit the first and assert it
# warm-loaded from its namespaced store slice, then SIGTERM the server,
# restart it on the same directory, analyze both projects again, and assert
# (1) the servers logged the store warm-load line, (2) every re-admission
# rebuilt zero artifacts (artifactStoreHits > 0, artifactMisses == 0), and
# (3) each project's reports are byte-identical across eviction and
# restart. Used by CI's store-restart and tenant-evict jobs and runnable
# locally.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${PINPOINT_STORE_ADDR:-127.0.0.1:7432}"
BASE="http://$ADDR"
tmpdir="$(mktemp -d "${TMPDIR:-/tmp}/pinpoint-store.XXXXXX")"
server_pid=""
cleanup() {
  status=$?
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$tmpdir"
  if [ "$status" -ne 0 ]; then
    echo "store_restart.sh: FAILED (exit $status)" >&2
    for log in "$tmpdir"/serve*.log; do
      [ -f "$log" ] && { echo "== $log" >&2; cat "$log" >&2; }
    done
  fi
  exit "$status"
}
trap cleanup EXIT

echo "== build"
go build -o "$tmpdir/pinpoint" ./cmd/pinpoint
# Two projects with different unit sets, so identical reports could not
# come from one shared (un-namespaced) store slice by accident.
go run ./scripts/mkreq -checkers all -project alpha examples/mc/*.mc >"$tmpdir/req_alpha.json"
mapfile -t subset < <(ls examples/mc/*.mc | head -n 2)
go run ./scripts/mkreq -checkers all -project beta "${subset[@]}" >"$tmpdir/req_beta.json"

start_server() {
  local log="$1"
  # -max-tenants 1: admitting any project evicts the resident one, which
  # persists its artifacts before being dropped. -tenant-idle -1s disables
  # the idle sweeper so the only evictions are the ones this script forces.
  "$tmpdir/pinpoint" serve -addr "$ADDR" -log-json \
    -store-dir "$tmpdir/store" -max-tenants 1 -tenant-idle -1s >"$log" 2>&1 &
  server_pid=$!
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/v1/ready" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "store_restart.sh: server exited during startup" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "store_restart.sh: server never became ready" >&2
  exit 1
}

stop_server() {
  kill -TERM "$server_pid"
  wait "$server_pid"
  server_pid=""
}

analyze() {
  local project="$1" out="$2"
  curl -fsS -X POST -H 'Content-Type: application/json' \
    --data-binary @"$tmpdir/req_$project.json" "$BASE/v1/analyze" >"$out"
  go run ./scripts/jsoncheck "$out"
  if ! grep -q "\"project\": \"$project\"" "$out"; then
    echo "store_restart.sh: $out did not echo project=$project" >&2
    exit 1
  fi
}

assert_cold() {
  if ! grep -q '"artifactStoreHits": 0' "$1"; then
    echo "store_restart.sh: cold run $1 reported store hits" >&2
    exit 1
  fi
}

assert_warm() {
  if grep -q '"artifactStoreHits": 0' "$1"; then
    echo "store_restart.sh: $1 store-loaded nothing" >&2
    exit 1
  fi
  if ! grep -q '"artifactMisses": 0' "$1"; then
    echo "store_restart.sh: $1 rebuilt artifacts instead of warm-loading" >&2
    exit 1
  fi
}

assert_same_reports() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))["reports"]
b = json.load(open(sys.argv[2]))["reports"]
ja, jb = json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True)
if ja != jb:
    sys.exit("reports differ: %s vs %s" % (sys.argv[1], sys.argv[2]))
if not a:
    sys.exit("no reports in %s; the round trip proved nothing" % sys.argv[1])
EOF
}

echo "== first run: populate $tmpdir/store (cap 1, each admission evicts)"
start_server "$tmpdir/serve1.log"
analyze alpha "$tmpdir/alpha1.json"   # evicts the default tenant
assert_cold "$tmpdir/alpha1.json"
analyze beta "$tmpdir/beta1.json"     # evicts alpha, persisting it
assert_cold "$tmpdir/beta1.json"

echo "== re-admit alpha without a restart (eviction round trip)"
analyze alpha "$tmpdir/alpha2.json"   # evicts beta; alpha warm-loads
assert_warm "$tmpdir/alpha2.json"
assert_same_reports "$tmpdir/alpha1.json" "$tmpdir/alpha2.json"
if ! grep -q 'store warm load' "$tmpdir/serve1.log"; then
  echo "store_restart.sh: re-admission never logged the warm-load line" >&2
  exit 1
fi

echo "== /v1/debug/tenants (only alpha resident under cap 1)"
curl -fsS "$BASE/v1/debug/tenants" >"$tmpdir/tenants.json"
go run ./scripts/jsoncheck "$tmpdir/tenants.json"
if ! grep -q '"project": "alpha"' "$tmpdir/tenants.json"; then
  echo "store_restart.sh: /v1/debug/tenants lost project alpha" >&2
  exit 1
fi
if grep -q '"project": "beta"' "$tmpdir/tenants.json"; then
  echo "store_restart.sh: beta still resident despite -max-tenants 1" >&2
  exit 1
fi

stop_server
if [ -z "$(find "$tmpdir/store" -maxdepth 1 -name '*.rec' -size +0c)" ]; then
  echo "store_restart.sh: no store record file was written" >&2
  exit 1
fi

echo "== second run: restart on the same -store-dir, both projects warm-load"
start_server "$tmpdir/serve2.log"
analyze alpha "$tmpdir/alpha3.json"
assert_warm "$tmpdir/alpha3.json"
assert_same_reports "$tmpdir/alpha1.json" "$tmpdir/alpha3.json"
analyze beta "$tmpdir/beta2.json"
assert_warm "$tmpdir/beta2.json"
assert_same_reports "$tmpdir/beta1.json" "$tmpdir/beta2.json"
if ! grep -q 'store warm load' "$tmpdir/serve2.log"; then
  echo "store_restart.sh: restarted server never logged the warm-load line" >&2
  exit 1
fi

echo "== /v1/debug/store"
curl -fsS "$BASE/v1/debug/store" >"$tmpdir/store.json"
go run ./scripts/jsoncheck "$tmpdir/store.json"
if ! grep -q '"persistent": true' "$tmpdir/store.json"; then
  echo "store_restart.sh: /v1/debug/store does not report a persistent store" >&2
  exit 1
fi

stop_server
echo "store_restart.sh: OK"
