#!/usr/bin/env bash
# The demos' promises over ROADMAP M's seed grids, with one `pocolo` binary.
#
#   seed_sweep.sh <pocolo>
#
# Two grids:
#   demo-fleet --fleet mixed3:<s> --faults chaos:<s>, s = 1..16;
#   demo-federation --regions <r> --seed <s>, with and without
#   --faults region-chaos:<s>, r in {2, 3, 4, 6}, s = 1..12.
# It prints each failing world with its `failed:` lines, then the count of
# failing worlds per grid.
#
# Advisory: a failing world is a finding, not an error, so it is not a CI
# step. It exits 1 only when a run crashes or is refused: an `error:` line,
# or an exit code other than 0 (every check held) or 1 (a check failed).
# The demo-fleet grid's cap check is tier-1 too (pocolo-sim's
# fleet::tests::fleet_caps_hold_over_the_seed_grid); here it also reports
# the grid's margin failures.
set -uo pipefail
[ $# -eq 1 ] || { sed -n '4p' "$0" | sed 's/^# *//'; exit 2; }
pocolo=$1
broken=0

# world <args...>: runs one world and prints it if a check failed. Adds 1
# to `failing` when it did; sets `broken` when the run crashed or was
# refused. The checks report on stderr; stdout is the run's report.
world() {
  local err code
  err=$("$pocolo" "$@" 2>&1 >/dev/null)
  code=$?
  if grep -q '^error:' <<<"$err" || ((code > 1)); then
    echo "BROKEN (exit $code): pocolo $*"
    sed 's/^/  /' <<<"$err"
    broken=1
  elif ((code == 1)); then
    echo "pocolo $*"
    grep 'failed:' <<<"$err" | sed 's/^/  /'
    failing=$((failing + 1))
  fi
}

failing=0
for s in $(seq 1 16); do
  world demo-fleet --fleet "mixed3:$s" --faults "chaos:$s"
done
echo "demo-fleet: $failing/16 worlds failing"

failing=0
for faults in with without; do
  for r in 2 3 4 6; do
    for s in $(seq 1 12); do
      if [ "$faults" = with ]; then
        world demo-federation --regions "$r" --seed "$s" --faults "region-chaos:$s"
      else
        world demo-federation --regions "$r" --seed "$s"
      fi
    done
  done
done
echo "demo-federation: $failing/96 worlds failing"
exit "$broken"
