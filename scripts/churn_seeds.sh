#!/usr/bin/env bash
# Runs the repository benchmark's sim_churn workload once per seed from
# FROM to TO and prints each seed's failed-delivery count, then the seeds
# that lost any. sim_churn is deterministic per seed, so running this on two
# commits shows whether a change moved which seeds lose a delivery. About
# 30 s per seed on a 2-vCPU machine; not a CI job.
#
# Usage: scripts/churn_seeds.sh FROM TO     (or: make churn-seeds FROM=1 TO=24)
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: $0 FROM TO" >&2
	exit 2
fi
cd "$(dirname "$0")/.."

failing=()
printf 'seed\tfailed\n'
for seed in $(seq "$1" "$2"); do
	result=$(bash bench/run.sh --workload sim_churn --seed "$seed" --trace 0 2>/dev/null | tail -n 1)
	failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$result")
	if [ -z "$failed" ]; then
		echo "seed $seed: no result line: $result" >&2
		exit 1
	fi
	printf '%s\t%s\n' "$seed" "$failed"
	if [ "$failed" != 0 ]; then
		failing+=("$seed")
	fi
done
echo "failing seeds: ${failing[*]:-none}"
