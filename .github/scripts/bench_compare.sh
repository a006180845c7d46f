#!/usr/bin/env bash
# Parent-vs-head verdict over two `pocolo-benchmark run-all` files.
#
#   bench_compare.sh <pocolo-benchmark> <parent.json> <head.json> <CHANGES.md>
#
# Deterministic work gates, wall-clock advises: a result digest or an exact
# per-layer row that moved fails the job unless the newest CHANGES.md entry
# (its last non-blank line) carries a `re-baseline:` note naming that
# row's workload (`declared.sh`); a failed op always fails it; the six
# end-to-end wall-clock rows are printed and never fail it.
set -uo pipefail
bench=$1 parent=$2 head=$3 changes=$4

# `compare` exits 1 on any row past its bound, wall-clock rows included; the
# verdict below is taken from the rows themselves, so only a usage or parse
# error (exit 2) is fatal here.
table=$("$bench" compare "$parent" "$head")
[ $? -le 1 ] || { echo "$table"; exit 2; }

# `<workload> <parent digest> -> <head digest>` for each digest that moved.
moved_digests() {
  python3 -c 'import json, sys
a, b = ({w["name"]: w["result_digest"] for w in json.load(open(p))["workloads"]}
        for p in sys.argv[1:])
for name in sorted(a.keys() | b.keys()):
    if a.get(name) != b.get(name):
        print(name, a.get(name), "->", b.get(name))' "$1" "$2"
}

echo "== wall-clock rows (advisory: shared runners; never fail the job) =="
grep -E ' (setup_s|peak_rss_mb|op_ms_p50|op_ms_p90|ops_per_s|cpu_ms_per_op) ' <<<"$table"

echo "== ops_failed =="
grep -E ' ops_failed ' <<<"$table"
if grep -E ' ops_failed .*MOVED' <<<"$table" >/dev/null; then
  echo "FAIL: a workload has failed ops at head"
  exit 1
fi

echo "== exact rows and result digests (gate) =="
moved=$(grep 'MOVED' <<<"$table")
moved_digests=$(moved_digests "$parent" "$head")
if [ -z "$moved" ] && [ -z "$moved_digests" ]; then
  echo "every exact row and every result digest is bit-equal to the parent's"
  exit 0
fi
[ -z "$moved" ] || echo "$moved"
[ -z "$moved_digests" ] || echo "$moved_digests"
workloads=$(printf '%s\n%s\n' "$moved" "$moved_digests" | awk 'NF { print $1 }' | sort -u)
# shellcheck disable=SC2086 # one argument per workload name
if "$(dirname "$0")/declared.sh" "$changes" $workloads; then
  echo "moved, and declared: the newest CHANGES.md entry's re-baseline: note names every moved workload"
  exit 0
fi
echo "FAIL: exact rows or digests moved that the newest CHANGES.md entry's re-baseline: note does not name"
exit 1
