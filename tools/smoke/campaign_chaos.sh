#!/usr/bin/env bash
# The campaign fault-tolerance contract, end to end:
#   * the same 100-point campaign runs once against a clean loopback
#     server (ref.jsonl) and once against one that injects the whole fault
#     repertoire (drops, delays, truncations, corruption, transient
#     rejects) on every third frame; the retrying runner must absorb every
#     injected failure and the two stores must be byte-identical;
#   * an unsurvivable run (half the frames rejected, zero retries) must
#     fail loudly with the server-error exit code and leave no store;
#   * given the direct-path store of the same campaign (campaign_resume.sh
#     leaves one), the via-service store must equal it byte for byte: both
#     paths run the one evaluation core.
#
# Usage: campaign_chaos.sh <cntyield_cli> <work-dir> [<direct-path store>]
set -euo pipefail
CLI=$(realpath "$1")
DIRECT=${3:+$(realpath "$3")}
mkdir -p "$2"
cd "$2"
rm -f ref.jsonl chaos.jsonl chaos.txt doomed.jsonl doomed.err

# Campaign through a fault-injecting server, diff the store.
CAMPAIGN="campaign --axes=process.pitch_cv=0.85,0.9;seed=1:1:50 --mc-samples=600 --seed=3 --chunk=8 --via-service"
"$CLI" $CAMPAIGN --store=ref.jsonl
"$CLI" $CAMPAIGN --store=chaos.jsonl \
  --chaos=drop,delay,truncate,corrupt,reject --chaos-period=3 \
  --chaos-seed=7 --retries=8 --retry-base-ms=1 | tee chaos.txt
grep -q "100 evaluated" chaos.txt
cmp ref.jsonl chaos.jsonl

# Exhausted retries fail loudly and leave no records: a transient outcome
# is never recorded as a result.
rc=0
"$CLI" campaign \
  "--axes=seed=1:1:4" --mc-samples=600 --seed=3 --via-service \
  --store=doomed.jsonl --chaos=reject --chaos-period=2 \
  --retries=0 --retry-base-ms=1 2> doomed.err || rc=$?
cat doomed.err
test "$rc" -eq 5
grep -q "service error \[try_later\]" doomed.err
test ! -s doomed.jsonl

# Direct path == via-service path (same axes, so no extra run).
if [ -n "$DIRECT" ]; then
  cmp "$DIRECT" ref.jsonl
fi
