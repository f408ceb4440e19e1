#!/usr/bin/env bash
# Builds the ledger into .bench_build/ of the checkout it is run from and
# runs it there. The Go build cache lives in the same directory, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOPROXY=off
# The ledger is a module of its own, so the root's `go test ./...` does not
# reach its tests. The first build in a checkout runs them instead: a copied
# calibration that has drifted from the harness stops the benchmark here.
if [ ! -x "$build/ledger-bin" ]; then
	go vet -C bench/ledger . >&2
	go test -C bench/ledger -short -count=1 . >&2
fi
go build -C bench/ledger -o "$build/ledger-bin" .
exec "$build/ledger-bin" "$@"
