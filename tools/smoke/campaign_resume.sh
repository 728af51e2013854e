#!/usr/bin/env bash
# The campaign resumability contract, end to end:
#   * a 100-point campaign is SIGTERM'd at its first checkpoint, resumed
#     with the identical command, and the finished store must be
#     byte-identical to an uninterrupted run's (ref.jsonl);
#   * re-running the finished campaign must evaluate nothing.
# The kill is synchronised on the store file (wait for the first
# checkpointed chunk, then signal), not a sleep, so the check does not
# depend on machine speed.
#
# Usage: campaign_resume.sh <cntyield_cli> <work-dir>
# Leaves the direct-path store ref.jsonl in <work-dir>.
set -euo pipefail
CLI=$(realpath "$1")
mkdir -p "$2"
cd "$2"
rm -f ref.jsonl run.jsonl rerun.txt

# Kill a campaign mid-flight, resume, diff the store.
CAMPAIGN="campaign --axes=process.pitch_cv=0.85,0.9;seed=1:1:50 --mc-samples=600 --seed=3 --chunk=8"
"$CLI" $CAMPAIGN --store=ref.jsonl

"$CLI" $CAMPAIGN --store=run.jsonl & CLI_PID=$!
for i in $(seq 1 600); do
  lines=$(wc -l < run.jsonl 2>/dev/null || echo 0)
  [ "$lines" -ge 8 ] && break
  sleep 0.1
done
kill -TERM "$CLI_PID"
rc=0; wait "$CLI_PID" || rc=$?
test "$rc" -eq 3
interrupted=$(wc -l < run.jsonl)
echo "interrupted with $interrupted/100 records"
test "$interrupted" -lt 100

"$CLI" $CAMPAIGN --store=run.jsonl
cmp ref.jsonl run.jsonl

# Re-run the finished campaign (must be a no-op): every point is skipped,
# no session is warmed, and the store bytes do not move.
"$CLI" campaign \
  "--axes=process.pitch_cv=0.85,0.9;seed=1:1:50" --mc-samples=600 --seed=3 \
  --chunk=8 --store=run.jsonl | tee rerun.txt
grep -q "0 evaluated + 0 failed + 100 skipped of 100 points" rerun.txt
grep -q "0 sessions warmed" rerun.txt
cmp ref.jsonl run.jsonl
