#!/bin/sh
# Byte-identity check of a refactor: run the same CLI outputs on this
# tree's smrp binary and on a parent build's, and compare them byte for
# byte.  Covers the figures, `all`, ablations, related work, latency (and
# its --trace file), scenario, dot, the quick campaign, the report's
# stdout, JSON and HTML, and the full output of the three seed-42 fuzz
# smokes.
#
# Usage: tools/byte_identity.sh PARENT_DIR
#   Run from the repository root once `dune build` has built
#   bin/smrp_cli.exe here and in PARENT_DIR (a checkout of the commit to
#   compare against, e.g. made with `git clone`).
# Prints one `same NAME` or `DIFF NAME` line per output and exits 1 if any
# output differs.  Each binary runs in its own scratch directory under the
# same relative file names, so lines that echo an output path match.
set -u
if [ $# -ne 1 ]; then
  echo "usage: $0 PARENT_DIR" >&2
  exit 2
fi
new_exe=$PWD/_build/default/bin/smrp_cli.exe
old_exe=$(cd "$1" && pwd)/_build/default/bin/smrp_cli.exe
for exe in "$new_exe" "$old_exe"; do
  if [ ! -x "$exe" ]; then
    echo "$0: $exe not built (run dune build there)" >&2
    exit 2
  fi
done
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/old" "$work/new"
status=0

same() {
  if cmp -s "$work/old/$1" "$work/new/$1"; then
    echo "same $1"
  else
    echo "DIFF $1"
    status=1
  fi
}

# run NAME ARGS...: stdout of `smrp ARGS...` on both builds, as NAME.
run() {
  name=$1
  shift
  (cd "$work/old" && "$old_exe" "$@" >"$name" 2>/dev/null)
  (cd "$work/new" && "$new_exe" "$@" >"$name" 2>/dev/null)
  same "$name"
}

run fig7 fig7
run fig8 fig8 --scenarios 10
run fig9 fig9 --scenarios 10
run fig10 fig10 --scenarios 10
run fig8-csv fig8 --scenarios 10 --csv
run fig9-degree-ten fig9 --scenarios 10 --degree-ten
run all all --scenarios 4
run ablations ablations --scenarios 10
run related-work related-work --scenarios 10
run latency latency
run latency-runs-3 latency --runs 3
run latency-trace latency --trace trace.jsonl
same trace.jsonl
run scenario scenario
run dot dot
run campaign-quick campaign --quick --summary
run report report --quick --html report.html --json report.json
same report.json
same report.html
run fuzz fuzz --runs 500 --seed 42
run fuzz-protection fuzz --runs 500 --seed 42 --protection
run fuzz-engine-diff fuzz --runs 500 --seed 42 --engine-diff
exit $status
