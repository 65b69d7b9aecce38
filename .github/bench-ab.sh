#!/usr/bin/env bash
# A/B microbenchmark gate. Builds the tracked packages' test binaries from
# <base-ref> (in a temporary git worktree) and from the checkout, runs them
# alternately on this machine, and compares the median ns/op of every
# benchmark. It fails when a benchmark whose base median is at least 1 µs
# got more than 2x slower.
#
# usage: bash .github/bench-ab.sh <base-ref>
#
# The raw `go test -bench` output of every round goes to bench-ab/raw/
# (<side>-<package>-<round>.txt) and the comparison table to
# bench-ab/compare.txt, both under the repository root. Exit status is 0
# on a pass, 1 on a regression and 2 on a usage error; a failed build or
# benchmark exits with its own status.
set -euo pipefail

# The tracked set: the numerical kernels and the system simulator.
PACKAGES="bti em circuit mathx pdn thermal core fleet scenario"
ROUNDS=5        # alternating rounds per side
BENCHTIME=200x  # per round: each side runs 1000 iterations per benchmark
FACTOR=2        # fail when head median / base median exceeds this ...
FLOOR_NS=1000   # ... and the base median is at least this many ns/op

if [ $# -ne 1 ]; then
	echo "usage: bash .github/bench-ab.sh <base-ref>" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
	echo "bench-ab: $1 is not a commit" >&2
	exit 2
}
out=$root/bench-ab
work=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
rm -rf "$out"
mkdir -p "$out/raw" "$work/bin/base" "$work/bin/head"
git -C "$root" worktree add --quiet --detach "$work/base" "$base"

# side_dir prints the source tree a side's binaries are built from and
# run in.
side_dir() {
	if [ "$1" = base ]; then echo "$work/base"; else echo "$root"; fi
}

tracked=""
for pkg in $PACKAGES; do
	if [ ! -d "$work/base/internal/$pkg" ]; then
		echo "note: internal/$pkg does not exist at base; skipped"
		continue
	fi
	for side in base head; do
		(cd "$(side_dir $side)" && go test -c -o "$work/bin/$side/$pkg.test" "./internal/$pkg")
	done
	tracked="$tracked $pkg"
done

for round in $(seq "$ROUNDS"); do
	for pkg in $tracked; do
		# Alternate which side runs first, so a drift of the machine's speed
		# over the run lands on both sides.
		if [ $((round % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
		for side in $order; do
			# Each binary runs from its package directory, as `go test` would,
			# and under go test's default timeout.
			(cd "$(side_dir $side)/internal/$pkg" &&
				"$work/bin/$side/$pkg.test" -test.run='^$' -test.bench=. \
					-test.benchtime="$BENCHTIME" -test.benchmem -test.timeout=10m) >"$out/raw/$side-$pkg-$round.txt"
		done
	done
	echo "round $round/$ROUNDS done"
done

# One "side key ns/op" line per benchmark result. Keys keep the -GOMAXPROCS
# suffix: both sides ran under the same GOMAXPROCS.
awk '/^Benchmark/ {
	n = split(FILENAME, path, "/"); split(path[n], f, "-")
	for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") print f[1], f[2] "." $1, $i
}' "$out/raw"/*.txt >"$work/ns.txt"

{
	echo "base $(git -C "$root" rev-parse --short "$base"), head $(git -C "$root" rev-parse --short HEAD) (working tree)"
	echo "$(go version), $(nproc) CPUs; $ROUNDS alternating rounds of -benchtime=$BENCHTIME per side"
	echo "gate: head/base median ns/op > $FACTOR fails when the base median is >= $FLOOR_NS ns"
	echo
	awk -v factor="$FACTOR" -v floor="$FLOOR_NS" '
	{ n[$1, $2]++; v[$1, $2, n[$1, $2]] = $3; if ($1 == "base") keys[$2] = 1; else head[$2] = 1 }
	function median(side, key,   m, i, j, t, a) {
		m = n[side, key]
		for (i = 1; i <= m; i++) a[i] = v[side, key, i] + 0
		for (i = 2; i <= m; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		return m % 2 ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2
	}
	END {
		for (k in keys) {
			if (!(k in head)) { print "WARNING: " k " is missing at head" > "/dev/stderr"; continue }
			b = median("base", k); h = median("head", k); r = h / b
			status = b < floor ? "floor" : (r > factor ? "FAIL" : "ok")
			printf "%.3f\t%s\t%.1f\t%.1f\t%s\n", r, status, b, h, k
		}
		for (k in head) if (!(k in keys)) print "note: " k " is new at head, not gated" > "/dev/stderr"
	}' "$work/ns.txt" | sort -t "$(printf '\t')" -k1,1gr -k5,5 >"$work/table.txt"
	printf "%-7s %-6s %14s %14s  %s\n" ratio status "base ns/op" "head ns/op" benchmark
	awk -F '\t' '{ printf "%-7s %-6s %14s %14s  %s\n", $1, $2, $3, $4, $5 }' "$work/table.txt"
} 2>&1 | tee "$out/compare.txt"

failed=$(awk -F '\t' '$2 == "FAIL"' "$work/table.txt" | wc -l)
if [ "$failed" -gt 0 ]; then
	echo "FAIL: $failed benchmark(s) more than ${FACTOR}x slower than base" | tee -a "$out/compare.txt"
	exit 1
fi
echo "pass: no benchmark above ${FLOOR_NS} ns/op more than ${FACTOR}x slower than base" | tee -a "$out/compare.txt"
