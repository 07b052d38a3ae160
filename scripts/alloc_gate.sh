#!/usr/bin/env bash
# Allocation gate: fails when a hot-path benchmark's allocs/op exceeds its
# ceiling. allocs/op is host-independent — it does not move with CPU speed,
# core count or load, and repeats run to run to within an allocation or
# two for these benchmarks — so unlike ns/op it can be gated on any host.
#
#   scripts/alloc_gate.sh
#
# Each ceiling is the measurement taken when it was set plus about 5%
# (at least one allocation). Lower a ceiling when a change cuts
# allocations; raising one needs a reason in the change that does it.
# Runs without -race, so the counts are those of an ordinary build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# benchmark name -> allocs/op ceiling (measured value in the comment).
declare -A ceiling=(
	[BenchmarkVarbenchNative]=3950   # 3764: barrier-synchronized corpus replay, native 64 cores
	[BenchmarkCompiledProgram]=6     # 5: warmed compiled-program iterations (the first allocates the lock table)
	[BenchmarkDensitySweep]=43200    # 41146: 3 surfaces x 400 ephemeral tenants
	[BenchmarkFigure3]=8160000       # 7769500: tailbench requests compiled straight into each request's op list
)

out=$(go test -run '^$' \
	-bench 'BenchmarkVarbenchNative$|BenchmarkCompiledProgram$|BenchmarkDensitySweep$|BenchmarkFigure3$' \
	-benchmem -benchtime 3x .)
echo "$out"

fail=0
for name in "${!ceiling[@]}"; do
	# A result line: Name-P  N  x ns/op  y B/op  z allocs/op
	got=$(awk -v n="$name" '$1 ~ "^"n"(-[0-9]+)?$" {
		for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print $i
	}' <<<"$out")
	if [[ -z "$got" ]]; then
		echo "alloc gate: no allocs/op result for $name" >&2
		fail=1
		continue
	fi
	max=${ceiling[$name]}
	if ((got > max)); then
		echo "alloc gate: $name allocates $got/op, ceiling $max" >&2
		fail=1
	else
		echo "alloc gate: $name $got allocs/op (ceiling $max)"
	fi
done
exit "$fail"
