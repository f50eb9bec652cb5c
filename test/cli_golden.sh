#!/bin/sh
# CLI golden pin: run a fixed set of deterministic jupiter_sim commands
# and print each command, its combined output and its exit code, so a
# refactor of the drivers can be diffed against the committed
# expectation (test/golden/cli.expected).
#
# usage: sh cli_golden.sh JUPITER_SIM SCHEDULE
#   JUPITER_SIM  path to the jupiter_sim executable
#   SCHEDULE     path to test/seeds/figure7.sched

sim=$1
sched=$2
star="css cscw rga naive css-pruned logoot css-seq treedoc"
correct="css cscw rga css-pruned logoot css-seq treedoc css-p2p ttf"
all="$star css-p2p ttf"

pin() {
  echo "### $*"
  "$sim" "$@" 2>&1
  echo "### exit $?"
}

for p in $correct; do pin simulate -p "$p" -u 60 -s 3; done
for p in $all; do pin soak "$p" --faults chaos -u 30 -s 3 --json; done
for p in $star; do pin trace figure2 --json -p "$p"; done
for p in $star; do pin replay -p "$p" "$sched"; done
for p in $correct; do pin fuzz -p "$p" --seeds 3 -u 20; done
