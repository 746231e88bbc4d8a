#!/bin/sh
# identity: the byte-identity oracle of a refactor.  Builds BASE's
# sdpsbench and genload from a temporary export of that revision (removed
# on exit) and this checkout's, then requires byte-identical artifacts
# from both on `-all -scale quick -json` and on `-scenario <spec> -scale
# quick -json` for every examples/scenarios/*.json, and byte-identical
# `genload -events` streams for every -keys choice.  It also requires this
# checkout's `-all` artifact to be the same at GOMAXPROCS=1 and
# GOMAXPROCS=4, so the parallel executor cannot change it.
#
# Usage: scripts/identity.sh BASE   (or `make identity BASE=<rev>`)
#
# BASE is any git revision (a commit, a tag, a branch).  The export is a
# `git archive` of BASE, so the check leaves no state in the repository
# even if it is killed.  Exits 1 if any artifact differs or fails to run.
set -eu
cd "$(dirname "$0")/.."

BASE="${1:?usage: scripts/identity.sh BASE}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM
mkdir "$TMP/src" "$TMP/base" "$TMP/head"

echo "identity: building $BASE and this checkout"
git archive "$BASE" | tar -x -C "$TMP/src"
(cd "$TMP/src" && go build -o "$TMP/sdpsbench-base" ./cmd/sdpsbench &&
	go build -o "$TMP/genload-base" ./cmd/genload)
go build -o "$TMP/sdpsbench-head" ./cmd/sdpsbench
go build -o "$TMP/genload-head" ./cmd/genload

fail=0

# same NAME A B: report whether files A and B are byte-identical.
same() {
	if cmp -s "$2" "$3"; then
		echo "identity: $1 identical ($(wc -c <"$2" | tr -d ' ') B)"
	else
		echo "identity: $1 DIFFERS" >&2
		fail=1
	fi
}

# compare NAME ARGS...: run both sdpsbench binaries with ARGS and compare
# stdout; BIN=genload compares the genload binaries instead.
compare() {
	name=$1
	bin=${BIN:-sdpsbench}
	shift
	if ! GOMAXPROCS=4 "$TMP/$bin-base" "$@" >"$TMP/base/$name"; then
		echo "identity: $name failed on $BASE" >&2
		fail=1
		return
	fi
	if ! GOMAXPROCS=4 "$TMP/$bin-head" "$@" >"$TMP/head/$name"; then
		echo "identity: $name failed on this checkout" >&2
		fail=1
		return
	fi
	same "$name" "$TMP/base/$name" "$TMP/head/$name"
}

compare all.json -all -scale quick -json
for spec in examples/scenarios/*.json; do
	compare "scenario-$(basename "$spec")" -scenario "$spec" -scale quick -json
done
# 40,000 events per stream: enough to cross draw-tape chunks.
for keys in normal uniform zipf single; do
	for ads in 0 0.3; do
		BIN=genload compare "genload-$keys-ads$ads" -rate 400000 -for 10s -ads "$ads" -match 0.5 -keys "$keys" -events
	done
done

if GOMAXPROCS=1 "$TMP/sdpsbench-head" -all -scale quick -json >"$TMP/head/all-1proc.json"; then
	same "all.json at GOMAXPROCS=1 vs 4" "$TMP/head/all-1proc.json" "$TMP/head/all.json"
else
	echo "identity: all.json failed at GOMAXPROCS=1" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "identity: FAIL" >&2
	exit 1
fi
echo "identity: PASS"
