#!/usr/bin/env bash
# Interleaved A/B rounds of one benchmark workload, for judging a speed claim.
#
#   ab_rounds.sh <bench-A> <bench-B> <workload> <rounds> <seconds>
#
# <bench-A> and <bench-B> are two built `pocolo-benchmark` binaries (A is the
# baseline). Each round runs both once with `--seed 1 --trace 0 --seconds
# <seconds>`, in an order that alternates from round to round, so drift on a
# shared machine lands on both sides. For every end-to-end metric it prints
# A's and B's medians, B/A, the rounds B was better in, and A's interquartile
# range, then each side's set of result digests. Passing the same binary
# twice is the A/A calibration: it shows how far noise alone moves a row.
# Each row's direction and bound come from the repo's BENCHMARK.json, and a
# row whose B median is worse than A's by more than that bound (as a share of
# A's median, the rule `pocolo-benchmark compare` applies) is marked WORSE.
#
# Advisory: it exits 0 unless a run fails (non-zero exit or failed ops). It is
# not a CI step; the rule it measures is in CONTRIBUTING.md.
set -uo pipefail
[ $# -eq 5 ] || { sed -n '4p' "$0" | sed 's/^# *//'; exit 2; }
bench_a=$1 bench_b=$2 workload=$3 rounds=$4 seconds=$5
contract=$(cd "$(dirname "$0")/../.." && pwd)/BENCHMARK.json
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

run() { # <side> <binary> <round>
  if ! "$2" --workload "$workload" --seed 1 --trace 0 --seconds "$seconds" \
      --report "$dir/$1.$3.json" >/dev/null; then
    echo "FAIL: side $1 round $3 exited non-zero" >&2
    exit 1
  fi
}

for ((r = 0; r < rounds; r++)); do
  if ((r % 2 == 0)); then
    run a "$bench_a" "$r"; run b "$bench_b" "$r"
  else
    run b "$bench_b" "$r"; run a "$bench_a" "$r"
  fi
  echo "round $((r + 1))/$rounds done" >&2
done

python3 - "$dir" "$rounds" "$workload" "$contract" <<'EOF'
import json, statistics, sys

dir, rounds, workload, contract = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
rules = {m["name"]: m for m in json.load(open(contract))["end_to_end"]}
runs = {s: [json.load(open(f"{dir}/{s}.{r}.json")) for r in range(rounds)] for s in "ab"}
failed = [(s, r) for s in "ab" for r, w in enumerate(runs[s]) if w["ops_failed"]]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{workload}: {rounds} interleaved rounds, B vs A")
print(f"{'metric':<16}{'A median':>14}{'B median':>14}{'B/A':>8}{'B better':>10}{'A IQR':>14}{'bound':>8}")
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
    print(f"{metric:<16}{ma:>14.6g}{mb:>14.6g}{ratio:>8}{f'{wins}/{rounds}':>10}{q3 - q1:>14.6g}{bound:>8g}{flag}")
for s in "ab":
    digests = sorted({w["result_digest"] for w in runs[s]})
    print(f"{s.upper()} result digests: {' '.join(digests)}")
if failed:
    print("FAIL: failed ops in " + ", ".join(f"{s.upper()} round {r + 1}" for s, r in failed))
    sys.exit(1)
EOF
