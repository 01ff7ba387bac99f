#!/usr/bin/env bash
# Tier-1 verification in one command: formatting, vet, build, tests (with
# the race detector — the parallel detection scheduler's determinism tests
# run under it), and the examples suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l cmd internal examples scripts ./*.go)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== fuzz smoke (artifact unit-record decoder)"
# Stored bytes are untrusted: ten seconds of mutated unit records must
# decode to an error or to artifacts, never to a panic. A crasher is written
# under internal/core/testdata/fuzz/FuzzDecodeSegment/ for the plain test
# run.
go test -run '^$' -fuzz '^FuzzDecodeSegment$' -fuzztime 10s ./internal/core

echo "== fuzz smoke (store record decoder)"
# Record files are untrusted too: arbitrary file bytes must read as a miss
# or as exactly the value that was put. Crashers land under
# internal/store/testdata/fuzz/FuzzDecodeRecord/.
go test -run '^$' -fuzz '^FuzzDecodeRecord$' -fuzztime 10s ./internal/store

echo "== examples"
for ex in quickstart useafterfree taintcheck crossfunction memoryleak; do
    echo "-- examples/$ex"
    go run "./examples/$ex" >/dev/null
done

echo "== pinpoint CLI smoke (trace + stats-json)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
# exit 1 just means bugs were reported — the examples contain some on purpose
go run ./cmd/pinpoint -checkers all -workers -1 \
    -trace "$tmpdir/trace.json" -stats-json "$tmpdir/stats.json" \
    examples/mc/*.mc >/dev/null || [ $? -eq 1 ]
go run ./scripts/jsoncheck "$tmpdir/trace.json" "$tmpdir/stats.json"

echo "== pinpoint CLI warm round (-repeat 2)"
# The second round re-reads unchanged inputs on the same session, so every
# artifact must be reused: the last artifacts line reports 0 misses.
go run ./cmd/pinpoint -checkers all -repeat 2 -stats \
    examples/mc/*.mc >/dev/null 2>"$tmpdir/repeat.log" || [ $? -eq 1 ]
if ! grep 'artifacts:' "$tmpdir/repeat.log" | tail -n 1 | grep -q ' 0 misses,'; then
    echo "second -repeat round rebuilt artifacts:" >&2
    cat "$tmpdir/repeat.log" >&2
    exit 1
fi

echo "== pinpoint CLI store restart (-store-dir, twice)"
# The second run is a fresh process on the store the first one wrote, so
# every artifact must load from it: 0 misses and a nonzero store-loaded
# count on the artifacts line.
for run in 1 2; do
    go run ./cmd/pinpoint -checkers all -stats -store-dir "$tmpdir/store" \
        examples/mc/*.mc >/dev/null 2>"$tmpdir/store$run.log" || [ $? -eq 1 ]
done
if ! grep 'artifacts:' "$tmpdir/store2.log" | grep -q ' 0 misses,.* [1-9][0-9]* store-loaded'; then
    echo "restart on -store-dir rebuilt artifacts:" >&2
    cat "$tmpdir/store2.log" >&2
    exit 1
fi

echo "OK"
