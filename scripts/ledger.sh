#!/usr/bin/env bash
# The host-CPU ledger: where a whole run's CPU goes, layer by layer.
#
# Runs each cell of the root package's BenchmarkAppRun, BenchmarkModeRun
# and BenchmarkNetRun on its own with a CPU profile, sums the profile's
# flat samples by layer (go tool pprof -top) and prints one markdown table
# per cell in CPU ms per op. With -base DIR every cell also runs in the checkout DIR, which must
# have the same benchmarks, and the table shows base → this checkout.
# Nothing but Go is needed. Run from the repository root:
#
#   bash scripts/ledger.sh > LEDGER.md
#   bash scripts/ledger.sh -base ../parent -cells 'spmv' -benchtime 3s
#
# -cells REGEX keeps the cells whose name (BenchmarkModeRun/spmv-large-adapt)
# matches; -benchtime is go test's (default 2s).
set -euo pipefail

base="" cells="." benchtime="2s"
while [ $# -gt 0 ]; do
	case "$1" in
	-base) base="$(cd "$2" && pwd)"; shift 2 ;;
	-cells) cells="$2"; shift 2 ;;
	-benchtime) benchtime="$2"; shift 2 ;;
	*) echo "usage: bash scripts/ledger.sh [-base DIR] [-cells REGEX] [-benchtime T]" >&2; exit 2 ;;
	esac
done
head="$PWD"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

layers=("app kernels" "interp" "tmk" "adapt" "vm" "sim + coroutine switch" "wire/host" "memmove/memclr" "GC + malloc" "maps + sort" "syscalls + netpoll" "Go scheduler" "other")

# layer sums one pprof -top listing (ms) by layer: "layer<TAB>ms" lines.
layer() {
	awk '
	$1 ~ /ms$/ && $6 != "" {
		ms = $1; sub(/ms$/, "", ms); fn = $6
		if (fn ~ /^sdsm\/internal\/apps\./) l = "app kernels"
		else if (fn ~ /^sdsm\/internal\/(interp|ir|rsd|compiler)\./) l = "interp"
		else if (fn ~ /^sdsm\/internal\/tmk\./) l = "tmk"
		else if (fn ~ /^sdsm\/internal\/adapt\./) l = "adapt"
		else if (fn ~ /^sdsm\/internal\/(vm|shm)\./) l = "vm"
		else if (fn ~ /^sdsm\/internal\/sim\./ || fn ~ /^iter\.Pull/ || fn ~ /^runtime\.(coro|gogo|mcall)/) l = "sim + coroutine switch"
		else if (fn ~ /^sdsm\/internal\/(wire|host|cluster|mpnet|svc)\./) l = "wire/host"
		else if (fn ~ /^runtime\.(memmove|memclr)/) l = "memmove/memclr"
		else if (fn ~ /^runtime\.(mallocgc|newobject|makeslice|growslice|nextFree|gc|bgsweep|bgscavenge|sweep|scan|grey|mark|findObject|heapBits|typePointers|bulkBarrier|wbBuf)/ ||
			fn ~ /^runtime\.\(\*(mspan|mheap|mcache|mcentral|gcWork|gcBits|gcControllerState|sweepLocked|pageAlloc|scavengerState|spanSet)\)/) l = "GC + malloc"
		else if (fn ~ /^(runtime\.(map|aeshash|memhash)|internal\/runtime\/maps\.|sort\.|slices\.)/) l = "maps + sort"
		else if (fn ~ /^(internal\/runtime\/syscall\.|syscall\.|runtime\.netpoll|runtime\.(enter|exit)syscall)/) l = "syscalls + netpoll"
		else if (fn ~ /^runtime\.(schedule|findRunnable|park_m|ready|goready|wakep|futex|notewakeup|notesleep|stopm|startm)/) l = "Go scheduler"
		else l = "other"
		sum[l] += ms
	}
	END { for (l in sum) printf "%s\t%.3f\n", l, sum[l] }'
}

# build compiles the root package's tests of checkout $1 to $2.
build() { (cd "$1" && go test -c -o "$2" .); }

# profile runs cell $2 of test binary $1 from checkout $3 and writes
# "ops<TAB>ns/op" then the layer sums to $4.
profile() {
	local pat="" part
	IFS=/ read -ra parts <<<"$2"
	for part in "${parts[@]}"; do pat="$pat${pat:+/}^$part\$"; done
	local out
	out="$(cd "$3" && "$1" -test.run '^$' -test.bench "$pat" -test.benchtime "$benchtime" -test.cpuprofile "$tmp/cpu.pprof")"
	awk '/^Benchmark/ { printf "%s\t%s\n", $2, $3; exit }' <<<"$out" >"$4"
	go tool pprof -top -nodecount=1000000 -nodefraction=0 -unit=ms "$1" "$tmp/cpu.pprof" 2>/dev/null | layer >>"$4"
}

# value prints the per-op ms of layer $2 in summary file $1 ("-" if absent).
value() {
	awk -F'\t' -v l="$2" 'NR == 1 { ops = $1; next } $1 == l { v = $2 } END { if (ops) printf "%.2f", v / ops; else printf "-" }' "$1"
}
total() { awk -F'\t' 'NR == 1 { ops = $1; next } { v += $2 } END { if (ops) printf "%.2f", v / ops; else printf "-" }' "$1"; }
samples() { awk -F'\t' 'NR > 1 { v += $2 } END { printf "%.0f", v / 10 }' "$1"; }
wall() { awk -F'\t' 'NR == 1 { if ($2) printf "%.2f", $2 / 1e6; else printf "-" }' "$1"; }
share() { awk -v v="$1" -v t="$2" 'BEGIN { if (t > 0 && v != "-") printf "%.0f %%", 100 * v / t; else printf "-" }'; }

build "$head" "$tmp/head.test"
[ -n "$base" ] && build "$base" "$tmp/base.test"
gmp="${GOMAXPROCS:-$(nproc)}"
list="$(cd "$head" && "$tmp/head.test" -test.run '^$' -test.bench '^Benchmark(AppRun|ModeRun|NetRun)$' -test.benchtime 1x)"
names="$(awk -v s="-$gmp" '/^Benchmark/ { n = $1; if (s != "-1" && substr(n, length(n) - length(s) + 1) == s) n = substr(n, 1, length(n) - length(s)); print n }' <<<"$list" | grep -E -- "$cells")"
cpu="$(awk '/^cpu: / { sub(/^cpu: /, ""); print; exit }' <<<"$list")"
rev() { git -C "$1" rev-parse --short HEAD 2>/dev/null | tr -d '\n' || printf unknown; [ -n "$(git -C "$1" status --porcelain 2>/dev/null)" ] && printf '+changes'; true; }

echo "# Host CPU ledger"
echo
echo "Written by \`bash scripts/ledger.sh\`$([ -n "$base" ] && printf ' with `-base`') at benchtime $benchtime: head $(rev "$head")$([ -n "$base" ] && printf ', base %s' "$(rev "$base")"); $(go env GOVERSION), GOMAXPROCS $gmp${cpu:+, $cpu}."
echo "Each cell is one sub-benchmark run alone under \`-cpuprofile\`: the profile's flat samples summed by layer and divided by the op count, in CPU ms per op."
echo "CPU counts every thread, the GC's on the other cores too, so a cell's CPU total can exceed its wall time per op."
echo "The profiler samples at 100 Hz: a layer of k samples moves by about √k from run to run, so read small rows as noise."
for name in $names; do
	profile "$tmp/head.test" "$name" "$head" "$tmp/head.sum"
	echo
	echo "## ${name#Benchmark}"
	echo
	if [ -n "$base" ]; then
		profile "$tmp/base.test" "$name" "$base" "$tmp/base.sum"
		bt="$(total "$tmp/base.sum")" ht="$(total "$tmp/head.sum")"
		echo "| layer | base CPU ms/op | head CPU ms/op | base share | head share |"
		echo "|---|---:|---:|---:|---:|"
		for l in "${layers[@]}"; do
			b="$(value "$tmp/base.sum" "$l")" h="$(value "$tmp/head.sum" "$l")"
			echo "| $l | $b | $h | $(share "$b" "$bt") | $(share "$h" "$ht") |"
		done
		echo "| **CPU total** | $bt | $ht | | |"
		echo "| profile samples | $(samples "$tmp/base.sum") | $(samples "$tmp/head.sum") | | |"
		echo "| wall ms/op | $(wall "$tmp/base.sum") | $(wall "$tmp/head.sum") | | |"
	else
		ht="$(total "$tmp/head.sum")"
		echo "| layer | CPU ms/op | share |"
		echo "|---|---:|---:|"
		for l in "${layers[@]}"; do
			h="$(value "$tmp/head.sum" "$l")"
			echo "| $l | $h | $(share "$h" "$ht") |"
		done
		echo "| **CPU total** | $ht | |"
		echo "| profile samples | $(samples "$tmp/head.sum") | |"
		echo "| wall ms/op | $(wall "$tmp/head.sum") | |"
	fi
done
