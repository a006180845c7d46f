#!/usr/bin/env bash
# Interleaved A/B rounds of benchmark workloads, for judging a speed claim.
#
#   ab_rounds.sh <bench-A> <bench-B> <workload>[,<workload>...] <rounds> <seconds> [<seed>]
#
# <bench-A> and <bench-B> are two built `pocolo-benchmark` binaries (A is the
# baseline). Each round runs both once on each listed workload with `--seed
# <seed> --trace 0 --seconds <seconds>` (seed 1 unless given), in an order
# that alternates from round to round, so drift on a shared machine lands on
# both sides. For each workload, in the order listed, it prints a table: for
# every end-to-end metric A's and B's medians, B/A, the rounds B was better
# in, and A's interquartile range, then each side's set of result digests.
# A list checks every other workload in the same interleaved batch as the
# claimed one. Passing the same binary twice is the A/A calibration: it shows
# how far noise alone moves a row.
# Each row's direction and bound come from the repo's BENCHMARK.json, and a
# row whose B median is worse than A's by more than that bound (as a share of
# A's median, the rule `pocolo-benchmark compare` applies) is marked WORSE.
# The verdict column applies CONTRIBUTING.md's rule for a claimed gain: a
# row `resolves` when B is better in at least 9 of 10 rounds and B's median
# is better than A's by more than A's interquartile range, and is
# `unresolved` otherwise.
#
# Advisory: it exits 0 unless a run fails (non-zero exit or failed ops). It is
# not a CI step; the rule it measures is in CONTRIBUTING.md.
set -uo pipefail
[ $# -eq 5 ] || [ $# -eq 6 ] || { sed -n '4p' "$0" | sed 's/^# *//'; exit 2; }
bench_a=$1 bench_b=$2 workloads=$3 rounds=$4 seconds=$5 seed=${6:-1}
IFS=, read -ra list <<<"$workloads"
contract=$(cd "$(dirname "$0")/../.." && pwd)/BENCHMARK.json
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

run() { # <side> <binary> <round> <workload>
  if ! "$2" --workload "$4" --seed "$seed" --trace 0 --seconds "$seconds" \
      --report "$dir/$4.$1.$3.json" >/dev/null; then
    echo "FAIL: side $1 round $3 exited non-zero" >&2
    exit 1
  fi
}

for ((r = 0; r < rounds; r++)); do
  for workload in "${list[@]}"; do
    if ((r % 2 == 0)); then
      run a "$bench_a" "$r" "$workload"; run b "$bench_b" "$r" "$workload"
    else
      run b "$bench_b" "$r" "$workload"; run a "$bench_a" "$r" "$workload"
    fi
  done
  echo "round $((r + 1))/$rounds done" >&2
done

python3 - "$dir" "$rounds" "$workloads" "$contract" "$seed" <<'EOF'
import json, statistics, sys

dir, rounds, workloads, contract, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
rules = {m["name"]: m for m in json.load(open(contract))["end_to_end"]}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def table(workload):
    runs = {s: [json.load(open(f"{dir}/{workload}.{s}.{r}.json")) for r in range(rounds)] for s in "ab"}
    print(f"{workload}: {rounds} interleaved rounds at seed {seed}, B vs A")
    print(f"{'metric':<16}{'A median':>14}{'B median':>14}{'B/A':>8}{'B better':>10}{'A IQR':>14}{'bound':>8}{'verdict':>12}")
    for metric in runs["a"][0]["end_to_end"]:
        a = [w["end_to_end"][metric]["value"] for w in runs["a"]]
        b = [w["end_to_end"][metric]["value"] for w in runs["b"]]
        ma, mb = statistics.median(a), statistics.median(b)
        sign = 1 if rules[metric]["better"] == "lower" else -1
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        worse = sign * (mb - ma) / max(abs(ma), sys.float_info.min)
        q1, q3 = quartiles(a)
        ratio = f"{mb / ma:.3f}" if ma else "-"
        bound = rules[metric]["bound"]
        flag = "  WORSE" if worse > bound else ""
        resolves = 10 * wins >= 9 * rounds and sign * (ma - mb) > q3 - q1
        verdict = "resolves" if resolves else "unresolved"
        print(f"{metric:<16}{ma:>14.6g}{mb:>14.6g}{ratio:>8}{f'{wins}/{rounds}':>10}{q3 - q1:>14.6g}{bound:>8g}{verdict:>12}{flag}")
    for s in "ab":
        digests = sorted({w["result_digest"] for w in runs[s]})
        print(f"{s.upper()} result digests: {' '.join(digests)}")
    return [(workload, s, r) for s in "ab" for r, w in enumerate(runs[s]) if w["ops_failed"]]

names = workloads.split(",")
failed = []
for i, workload in enumerate(names):
    if i:
        print()
    failed += table(workload)
if failed:
    label = lambda w: f"{w} " if len(names) > 1 else ""
    print("FAIL: failed ops in " + ", ".join(f"{label(w)}{s.upper()} round {r + 1}" for w, s, r in failed))
    sys.exit(1)
EOF
