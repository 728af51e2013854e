#!/usr/bin/env bash
# The campaign resumability contract, end to end:
#   * a 100-point campaign is SIGTERM'd at its first checkpoint, resumed
#     with the identical command, and the finished store must be
#     byte-identical to an uninterrupted run's (ref.jsonl);
#   * re-running the finished campaign must evaluate nothing.
# The kill is synchronised on the store file (wait for the first
# checkpointed chunk, then signal), not a sleep. On a fast host the whole
# campaign can still finish between two polls, before the signal lands;
# such a run (exit 0, every record written) starts the drill again on a
# fresh store, up to a bounded number of attempts, and the check fails if
# no attempt was interrupted.
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

interrupted=""
for attempt in 1 2 3 4 5; do
  rm -f run.jsonl
  "$CLI" $CAMPAIGN --store=run.jsonl & CLI_PID=$!
  for i in $(seq 1 6000); do
    lines=$(wc -l < run.jsonl 2>/dev/null || echo 0)
    [ "$lines" -ge 8 ] && break
    sleep 0.01
  done
  kill -TERM "$CLI_PID" 2>/dev/null || true
  rc=0; wait "$CLI_PID" || rc=$?
  if [ "$rc" -eq 0 ]; then
    # Finished before the signal took effect: a complete store, no fault.
    test "$(wc -l < run.jsonl)" -eq 100
    echo "attempt $attempt finished before the signal; starting again"
    continue
  fi
  test "$rc" -eq 3
  interrupted=$(wc -l < run.jsonl)
  break
done
test -n "$interrupted"
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
