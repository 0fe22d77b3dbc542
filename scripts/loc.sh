#!/usr/bin/env bash
# Non-test Go lines per serving-stack package, plus the total — the
# figure every PR reports the delta of in CHANGES.md (ROADMAP aim 2).
# `make loc-check` (and CI) fails when the total exceeds scripts/loc.max;
# a package that joins the serving stack joins pkgs below, so code
# cannot leave the ledger by moving. For the delta itself:
#   git diff --numstat <base> -- <pkgs> | grep -v _test.go
set -euo pipefail
cd "$(dirname "$0")/.."

pkgs=(internal/serve internal/wal internal/checkpoint internal/replica
	internal/dgram internal/router internal/vfs internal/simfs
	internal/simfs/explore internal/daemon cmd/dynallocd cmd/dynrouter
	scripts/dgramc)

total=0
for p in "${pkgs[@]}"; do
	n=$(find "$p" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%7d  %s\n' "$n" "$p"
	total=$((total + n))
done
printf '%7d  total\n' "$total"
