#!/usr/bin/env bash
# Isolated A/B of go test benchmarks: the test binary of a base revision
# against the test binary of the working tree, run alternately so that
# drift on a shared host falls on both sides alike.
#
#   scripts/bench-ab.sh BASE BENCH [RUNS] [PKG] [BENCHTIME]
#   make bench-ab BASE=HEAD~1 BENCH='SendDESC' RUNS=10 [PKG=./internal/bitutil]
#
# BASE is any git revision; it is exported with `git archive` into
# .bench_build/ab/base (ignored) and built there. Run i starts with the
# base binary when i is odd and with the working tree's when i is even.
# For every benchmark the script prints each side's median ns/op with its
# quartiles, the change of the medians, and in how many runs the working
# tree was faster. Raw outputs stay in .bench_build/ab/{base,head}.N.txt.
set -euo pipefail

if [[ $# -lt 2 ]]; then
	echo "usage: $0 BASE BENCH [RUNS] [PKG] [BENCHTIME]" >&2
	exit 2
fi
base=$1 bench=$2 runs=${3:-10} pkg=${4:-.} benchtime=${5:-300ms}
root=$(git rev-parse --show-toplevel)
out="$root/.bench_build/ab"
rm -rf "$out"
mkdir -p "$out/base"
git -C "$root" archive "$base" | tar -x -C "$out/base"
(cd "$out/base" && go test -c -o "$out/base.test" "$pkg")
(cd "$root" && go test -c -o "$out/head.test" "$pkg")

run() { # side run
	local dir="$root"
	[[ $1 == base ]] && dir="$out/base"
	(cd "$dir/$pkg" && "$out/$1.test" -test.run '^$' -test.bench "$bench" \
		-test.benchtime "$benchtime" -test.timeout 30m) >"$out/$1.$2.txt"
}
for ((i = 1; i <= runs; i++)); do
	if ((i % 2)); then run base "$i" && run head "$i"; else run head "$i" && run base "$i"; fi
	echo "bench-ab: run $i/$runs done" >&2
done

# One "side run name ns" line per benchmark result, then the table.
for side in base head; do
	for ((i = 1; i <= runs; i++)); do
		awk -v s="$side" -v r="$i" '$1 ~ /^Benchmark/ && $4 == "ns/op" { print s, r, $1, $3 }' "$out/$side.$i.txt"
	done
done | awk -v runs="$runs" -v base="$base" '
function sortv(a, n,   i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
}
# q returns the p-quantile of the sorted a[1..n], interpolated linearly.
function q(a, n, p,   h, l) {
	h = (n - 1) * p + 1
	l = int(h)
	return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l])
}
function stats(side, name,   n, i, v) {
	n = 0
	for (i = 1; i <= runs; i++) if ((side, name, i) in ns) v[++n] = ns[side, name, i]
	if (n == 0) return "-"
	sortv(v, n)
	med[side] = q(v, n, 0.5)
	return sprintf("%.1f [%.1f, %.1f]", med[side], q(v, n, 0.25), q(v, n, 0.75))
}
{
	ns[$1, $3, $2] = $4
	if (!($3 in seen)) { seen[$3] = 1; order[++names] = $3 }
}
END {
	printf "%-44s %-26s %-26s %8s %6s\n", "benchmark (ns/op)", "base " base, "working tree", "change", "wins"
	for (k = 1; k <= names; k++) {
		name = order[k]
		delete med
		b = stats("base", name)
		h = stats("head", name)
		wins = 0; pairs = 0
		for (i = 1; i <= runs; i++) {
			if (!(("base", name, i) in ns) || !(("head", name, i) in ns)) continue
			pairs++
			if (ns["head", name, i] < ns["base", name, i]) wins++
		}
		change = ("base" in med && "head" in med) ? sprintf("%+.1f%%", 100 * (med["head"] / med["base"] - 1)) : "-"
		printf "%-44s %-26s %-26s %8s %3d/%-2d\n", name, b, h, change, wins, pairs
	}
}'
