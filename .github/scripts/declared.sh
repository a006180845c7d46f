#!/usr/bin/env bash
# Which of the given names the newest CHANGES.md entry's re-baseline note
# leaves out.
#
#   declared.sh <CHANGES.md> <name>...
#
# The note is the text after `re-baseline:` on the file's last non-blank
# line (a trailing blank line does not hide the newest entry). A name
# counts only as a whole word, so `traffic-loop` does not name `traffic`.
# Prints each name left out and exits 1 if there is one, or if that line
# has no note at all.
set -uo pipefail
changes=$1
shift

line=$(grep -v '^[[:space:]]*$' "$changes" | tail -n 1)
if [[ $line != *re-baseline:* ]]; then
  echo "the newest CHANGES.md entry has no re-baseline: note"
  exit 1
fi
note=${line#*re-baseline:}

missing=0
for name in "$@"; do
  if ! grep -qE "(^|[^[:alnum:]_-])${name}([^[:alnum:]_-]|\$)" <<<"$note"; then
    echo "not named by the re-baseline: note: $name"
    missing=1
  fi
done
exit $missing
