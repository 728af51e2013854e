#!/usr/bin/env bash
# The service round trip, end to end:
#   * the two-terminal story as one script: background server, wait for
#     liveness, one real request, clean shutdown, server exits 0 and logs
#     its stats line;
#   * scenario engine through the service loopback: a removal-frontier
#     sweep with the short mode riding at the swept p_Rm (protocol decode,
#     derived-corner session cache, per-point error isolation). The sweep
#     is tuned to cross from short-mode-infeasible into feasible territory,
#     so both row kinds must render.
# The server listens on 127.0.0.1:7431, which nothing else in the repo uses.
#
# Usage: service_roundtrip.sh <cntyield_cli> <work-dir>
set -euo pipefail
CLI=$(realpath "$1")
mkdir -p "$2"
cd "$2"
rm -f serve.log response.txt scenarios.txt

# Serve, request, shut down.
"$CLI" serve --port=7431 > serve.log 2>&1 &
SERVER_PID=$!
# A failed step below must not leave the server running.
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
for i in $(seq 1 100); do
  "$CLI" request --port=7431 --ping && break
  sleep 0.2
done
"$CLI" request --port=7431 --mc-samples=500 --seed=3 | tee response.txt
grep -q "aligned-active (1 row)" response.txt
"$CLI" request --port=7431 --shutdown
wait "$SERVER_PID"
trap - EXIT
cat serve.log
grep -q "shutting down: " serve.log

# Scenario sweep through the service loopback.
"$CLI" scenarios --points=4 --mc-samples=400 \
  --seed=3 --selectivity=6 --prm-lo=0.999 --prm-hi=0.9999999 \
  --with-shorts --noise-fails=0.00001 --via-service \
  | tee scenarios.txt
grep -q "infeasible" scenarios.txt
grep -q "| ok" scenarios.txt
grep -q "derived-corner sessions warmed" scenarios.txt
