#!/bin/sh
# check.sh — the repo's tier-1 verification gate plus a short race pass
# of the concurrency-bearing packages. Run from the repository root:
#
#   ./scripts/check.sh          # build, vet, full tests, race pass
#   ./scripts/check.sh -short   # same, with -short tests
set -eu

short=""
if [ "${1:-}" = "-short" ]; then
    short="-short"
fi

echo "== go generate ./internal/gate (generated kernels must match the generator)"
go generate ./internal/gate
git diff --exit-code -- \
    internal/gate/kernels_generated.go \
    internal/gate/kernels_amd64.go \
    internal/gate/kernels_amd64.s || {
    echo "check: generated kernel files are stale; rerun 'make generate' and commit the output" >&2
    exit 1
}

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test $short ./..."
go test $short ./...

echo "== go test -race -short ./internal/gate ./internal/fault ./internal/shard ./internal/serve ./internal/cache"
go test -race -short ./internal/gate ./internal/fault ./internal/shard ./internal/serve ./internal/cache

echo "== go test -run FuzzVariantVsISS -count=1 ./internal/plasma (differential fuzz seed corpus)"
go test -run FuzzVariantVsISS -count=1 ./internal/plasma

echo "== go test -tags purego $short ./internal/gate ./internal/fault (generic kernels)"
go test -tags purego $short ./internal/gate ./internal/fault

echo "== GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/gate (cross-arch smoke)"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/gate

echo "check: OK"
