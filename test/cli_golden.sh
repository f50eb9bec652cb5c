#!/bin/sh
# CLI golden pin: run a fixed set of deterministic jupiter_sim commands
# and print each command, its combined output and its exit code, so a
# refactor of the drivers can be diffed against the committed
# expectation (test/golden/cli.expected).
#
# usage: sh cli_golden.sh JUPITER_SIM SCHEDULE
#   JUPITER_SIM  path to the jupiter_sim executable
#   SCHEDULE     path to test/seeds/figure7.sched

sim=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
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

# The figure commands, and the unknown-scenario refusal of each.
pin figures
pin stats figure7
pin stats figure7 --json
pin viz figure7
for c in stats viz trace; do pin "$c" no-such-scenario; done

# Commands that write files (a schedule, a flight recording) run in a
# scratch directory, so nothing is left behind.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
pin record -u 20 -s 3 -o g.sched
pin replay -p cscw g.sched
# A text-mode soak: the strong spec is violated (Thm 8.1), and the
# naive foil aborts and dumps its recording.
pin soak css --faults none --no-shim -u 60 -s 7
pin soak naive --faults chaos -u 30 -s 3
# Its replay reproduces the abort; under --json the verdict is one
# JSON object.
pin replay soak-naive-3.jfr --json
