#!/bin/sh
# Bad counts, out-of-range floats and unwritable output files are input
# errors, never an uncaught exception (exit 125): cmdliner rejects a bad
# count, domain count or float before any work starts (exit 124), a
# subcommand rejects the rest (exit 1, or 2 for a bad campaign matrix).
# Usage: cli_errors.sh PATH-TO-SMRP-CLI
smrp=$1
status=0
expect() {
  code=$1
  shift
  "$smrp" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$code" ]; then
    echo "smrp $*: exit $got, expected $code" >&2
    status=1
  fi
}
expect 124 fig7 --topologies 0
for cmd in fig8 fig9 fig10 all ablations related-work profile report; do
  expect 124 "$cmd" --scenarios 0
done
expect 124 latency --runs 0
expect 124 fuzz --runs 0
expect 124 fuzz --max-nodes 7
expect 124 campaign --quick --jobs 0
expect 124 campaign --quick --jobs 129
expect 124 scale -n 0
expect 124 scale -n 1000,1
expect 124 scale -n 1000001
expect 124 scale -n 1000,1000001
expect 124 scenario --group 0
expect 124 scenario --alpha 2
expect 124 scenario --alpha nan
expect 124 scenario --d-thresh=-1
expect 124 scenario --d-thresh nan
expect 1 scenario -n 10 --group 30
expect 1 scenario -n 10 --group 10
expect 1 scale -n 1000 --json no-such-dir/scale.json
expect 2 campaign --quick --matrix "figs=7"
expect 2 campaign --matrix "topo=scale:1"
expect 2 campaign --matrix "topo=ts:5"
expect 2 campaign --matrix "fail=regional:nan"
expect 2 campaign --matrix "topo=waxman:5000000"
expect 2 campaign --matrix "topo=waxman:5001"
expect 2 campaign --matrix "topo=waxman:0x10"
expect 2 campaign --matrix "seed=0b11"
expect 2 campaign --matrix "instances=+5"
expect 2 campaign --matrix "churn=static:1_000"
expect 2 campaign --matrix "horizon=0x1p4"
exit $status
