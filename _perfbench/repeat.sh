#!/usr/bin/env bash
# Records repeated runs of the benchmark and summarizes them. Run from
# the repository root:
#
#   bash _perfbench/repeat.sh <out-dir> <seed>...
#
# Each workload (or those named in WORKLOADS) runs once per seed, with
# --trace ${TRACE:-0} and --seconds ${RUN_SECONDS:-20}. The result line
# of every run is appended to <out-dir>/<workload>.jsonl and its full
# output to <out-dir>/<workload>.log; <out-dir>/summary.md gets the
# median, quartiles and spread of every metric.
set -euo pipefail
out="$1"
shift
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
mkdir -p "$out"
for w in ${WORKLOADS:-inmem serve store ooc}; do
	for seed in "$@"; do
		log="$(bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "${RUN_SECONDS:-20}" --trace "${TRACE:-0}")"
		printf '# seed %s\n%s\n' "$seed" "$log" >>"$out/$w.log"
		printf '{"workload":"%s","seed":%s,"trace":%s,"result":%s}\n' "$w" "$seed" "${TRACE:-0}" "$(tail -n 1 <<<"$log")" >>"$out/$w.jsonl"
	done
done
"$root/.bench_build/perfbench" -root "$root" -summarize "$out" >"$out/summary.md"
