#!/usr/bin/env bash
# Usage: same-artifacts.sh A B
# Checks that the run directories A and B list the same files and that
# every file but timings.csv (wall times) is byte-identical; prints the
# pair and its files.
set -euo pipefail
a=$1 b=$2
diff <(ls "$a") <(ls "$b")
for f in $(ls "$a"); do
  [ "$f" = timings.csv ] || cmp "$a/$f" "$b/$f"
done
echo "$(basename "$a"):$(basename "$b"): $(ls "$a" | tr '\n' ' ')"
