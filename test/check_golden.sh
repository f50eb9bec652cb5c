#!/bin/sh
# Model-checker golden pin: run `jupiter_sim check` on the two-client,
# two-operation catalog for every protocol, plain and batched, plus the
# continuous-GC legs CI runs, and print each command, its JSON report
# and its exit code.  Wall-clock fields are masked, so the output
# (verdicts, state and interleaving counts, witness lengths) is
# deterministic and can be diffed against test/golden/check.expected.
#
# usage: sh check_golden.sh JUPITER_SIM

sim=$1
all="css cscw rga naive css-pruned logoot css-seq treedoc css-p2p ttf"
gc=ops=1,retain=2,snap=1

pin() {
  echo "### $*"
  out=$("$sim" "$@" 2>&1)
  code=$?
  printf '%s\n' "$out" | sed 's/"elapsed_s": [-+.0-9e]*/"elapsed_s": _/g'
  echo "### exit $code"
}

for p in $all; do
  pin check "$p" --clients 2 --ops 2 --json
  pin check "$p" --clients 2 --ops 2 --json --batching
done
for p in css cscw css-pruned css-seq; do
  pin check "$p" --clients 2 --ops 2 --json --gc "$gc"
done
pin check css-pruned --clients 2 --ops 2 --json --gc "$gc" --batching
