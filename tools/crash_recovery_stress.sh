#!/usr/bin/env bash
# Crash-recovery stress test: stream records into `kanon_cli serve
# --listen` over POST /ingest (200-row batches, one curl each), SIGKILL the
# server at a random point mid-ingest, so the kill lands mid-request,
# mid-WAL-append or mid-checkpoint, then restart in --recover-only mode with
# the same --domain and assert
#
#   1. record conservation, per shard: every recovered record is counted
#      exactly once (recovered == next_lsn - 1 — the LSN-dense invariant;
#      duplicates or losses within the durable horizon would break it), and
#   2. the recovered release is k-anonymous (min_partition >= k once at
#      least k records survived).
#
# With KANON_FAULT_SEED set, each serving run additionally executes a
# deterministic I/O fault schedule (seed + iteration): torn writes, ENOSPC
# and failed fsyncs land on the WAL *while* the process is also being
# SIGKILLed — the same invariants must hold over whatever suffix of the
# stream survived both. The recovery pass always runs fault-free (it models
# a healthy replacement disk).
#
# Usage: crash_recovery_stress.sh <kanon_cli> [iterations] [workdir]
# Env:   KANON_FAULT_SEED       base seed; enables fault injection
#        KANON_FAULT_MEAN_OPS   mean data-plane ops between faults
#        KANON_FAULT_BREAK_AFTER hard disk-death op index
#        KANON_SHARDS=N         serve and recover with N shards: the kill
#                               lands across N independent WAL directories
#        KANON_REPL=1           replication chaos mode: one leader + one
#                               --follow read replica; each iteration
#                               SIGKILLs the leader mid-tail and restarts it
#                               on the same port. The follower must
#                               reconnect without operator action and
#                               converge to a byte-identical /release.
#                               (Replaces the recover-only loop; fault-seed
#                               composition does not apply here.)

set -u

CLI=${1:?usage: crash_recovery_stress.sh <kanon_cli> [iterations] [workdir]}
ITERATIONS=${2:-8}
WORKDIR=${3:-$(mktemp -d /tmp/kanon_crash_stress_XXXXXX)}
K=10
ROWS=20000
FAULT_BASE_SEED=${KANON_FAULT_SEED:-}
SHARDS=${KANON_SHARDS:-1}
# Every run and its recovery share one domain: split normalization and the
# DP grid derive from it.
DOMAIN="0:1000,0:1000"

mkdir -p "$WORKDIR"
INPUT="$WORKDIR/stream.csv"
WAL_DIR="$WORKDIR/wal"

# ~20k rows of "x,y,sensitive".
awk -v n="$ROWS" 'BEGIN {
  srand(42);
  for (i = 0; i < n; i++)
    printf "%.6f,%.6f,%d\n", rand() * 1000, rand() * 1000, int(rand() * 8);
}' > "$INPUT"

fail() { echo "FAIL: $*" >&2; exit 1; }

# Waits for "listening on 127.0.0.1:PORT" in $1 while pid $2 stays alive;
# prints the port (empty on failure).
wait_port() {
  local log=$1 pid=$2 port=""
  for _ in $(seq 1 200); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
    [ -n "$port" ] && break
    kill -0 "$pid" 2> /dev/null || break
    sleep 0.05
  done
  echo "$port"
}

if [ -n "${KANON_REPL:-}" ]; then
  # Replication chaos: a leader and a follower stay up across the whole
  # run; every iteration kills the leader mid-tail (SIGKILL, no drain) and
  # restarts it on the same port from the same WAL directory. The follower
  # must ride every outage by itself: reconnect, re-fetch from its applied
  # LSN (or re-bootstrap if the range was checkpoint-truncated), chase the
  # restarted leader's renumbered epochs, and end byte-identical.
  ROWS_PER_ROUND=2000
  LEADER_LOG="$WORKDIR/leader_0.log"
  rm -rf "$WAL_DIR"

  "$CLI" serve --listen 127.0.0.1:0 --domain "$DOMAIN" --k "$K" \
    --wal-dir "$WAL_DIR" --fsync-every 64 --checkpoint-every 2000 \
    --snapshot-every 500 > "$LEADER_LOG" 2>&1 &
  LEADER_PID=$!
  LEADER_PORT=$(wait_port "$LEADER_LOG" "$LEADER_PID")
  [ -n "$LEADER_PORT" ] || fail "leader never printed its port"

  FOLLOWER_LOG="$WORKDIR/follower.log"
  "$CLI" serve --follow "127.0.0.1:$LEADER_PORT" \
    --listen 127.0.0.1:0 --domain "$DOMAIN" --k "$K" \
    --repl-poll-ms 10 --max-staleness-ms 30000 \
    > "$FOLLOWER_LOG" 2>&1 &
  FOLLOWER_PID=$!
  FOLLOWER_PORT=$(wait_port "$FOLLOWER_LOG" "$FOLLOWER_PID")
  [ -n "$FOLLOWER_PORT" ] || fail "follower never printed its port"

  for i in $(seq 1 "$ITERATIONS"); do
    # Pump this round's slice while the kill timer runs: the SIGKILL lands
    # mid-ingest and mid-tail.
    FIRST=$(( (i - 1) * ROWS_PER_ROUND + 1 ))
    LAST=$(( i * ROWS_PER_ROUND ))
    sed -n "${FIRST},${LAST}p" "$INPUT" \
      | split -l 200 --filter="curl -s -o /dev/null -m 5 -H 'Expect:' \
        --data-binary @- http://127.0.0.1:$LEADER_PORT/ingest || true" \
        - > /dev/null 2>&1 &
    PUMP=$!
    sleep "0.$(( (RANDOM % 7) + 2 ))"
    kill -9 "$LEADER_PID" 2> /dev/null
    wait "$LEADER_PID" 2> /dev/null
    wait "$PUMP" 2> /dev/null

    # Restart on the same port (retry while the old socket lingers). The
    # restarted leader recovers from the WAL and renumbers epochs from 1 —
    # the follower must converge regardless.
    LEADER_LOG="$WORKDIR/leader_$i.log"
    STARTED=""
    for _ in $(seq 1 40); do
      "$CLI" serve --listen "127.0.0.1:$LEADER_PORT" \
        --domain "$DOMAIN" --k "$K" \
        --wal-dir "$WAL_DIR" --fsync-every 64 --checkpoint-every 2000 \
        --snapshot-every 500 > "$LEADER_LOG" 2>&1 &
      LEADER_PID=$!
      PORT=$(wait_port "$LEADER_LOG" "$LEADER_PID")
      if [ "$PORT" = "$LEADER_PORT" ]; then STARTED=1; break; fi
      wait "$LEADER_PID" 2> /dev/null
      sleep 0.25
    done
    [ -n "$STARTED" ] \
      || fail "iteration $i: leader would not rebind port $LEADER_PORT"
    echo "iteration $i: leader killed and restarted on port $LEADER_PORT"
  done

  # Quiesce: a final slice lands entirely on the last incarnation, so the
  # leader publishes a fresh epoch for the follower to chase.
  FIRST=$(( ITERATIONS * ROWS_PER_ROUND + 1 ))
  LAST=$(( FIRST + ROWS_PER_ROUND - 1 ))
  sed -n "${FIRST},${LAST}p" "$INPUT" \
    | split -l 200 --filter="curl -s -o /dev/null -m 5 -H 'Expect:' \
      --data-binary @- http://127.0.0.1:$LEADER_PORT/ingest || true" \
      - > /dev/null 2>&1

  # Convergence: the follower's /release must become byte-identical to the
  # leader's (same epoch, same partitions, same bytes).
  CONVERGED=""
  for _ in $(seq 1 240); do
    L=$(curl -s -m 5 "http://127.0.0.1:$LEADER_PORT/release")
    F=$(curl -s -m 5 "http://127.0.0.1:$FOLLOWER_PORT/release")
    if [ -n "$L" ] && [ "$L" = "$F" ] \
       && echo "$L" | grep -q '"records"'; then
      CONVERGED=1
      break
    fi
    sleep 0.25
  done
  [ -n "$CONVERGED" ] || fail "follower never converged to the leader's \
release (leader: ${L:0:120}... follower: ${F:0:120}...)"

  RECONNECTS=$(curl -s -m 5 "http://127.0.0.1:$FOLLOWER_PORT/metrics" \
    | sed -n 's/^kanon_repl_reconnects_total \([0-9]*\).*/\1/p')
  [ -n "$RECONNECTS" ] && [ "$RECONNECTS" -ge 1 ] \
    || fail "follower reconnects=$RECONNECTS after $ITERATIONS leader kills"
  HEALTH=$(curl -s -m 5 -o /dev/null -w '%{http_code}' \
    "http://127.0.0.1:$FOLLOWER_PORT/healthz")
  [ "$HEALTH" = "200" ] || fail "follower healthz=$HEALTH after convergence"

  kill "$LEADER_PID" "$FOLLOWER_PID" 2> /dev/null
  wait "$LEADER_PID" 2> /dev/null
  wait "$FOLLOWER_PID" 2> /dev/null
  echo "PASS: follower survived $ITERATIONS leader SIGKILLs" \
       "(reconnects=$RECONNECTS) and converged byte-identical"
  rm -rf "$WORKDIR"
  exit 0
fi

for i in $(seq 1 "$ITERATIONS"); do
  rm -rf "$WAL_DIR"
  LOG="$WORKDIR/serve_$i.log"

  # Each iteration gets its own derived seed so the schedule varies while
  # any single failure reproduces from the seed printed in its log.
  if [ -n "$FAULT_BASE_SEED" ]; then
    export KANON_FAULT_SEED=$((FAULT_BASE_SEED + i))
  fi

  "$CLI" serve --listen 127.0.0.1:0 --domain "$DOMAIN" --k "$K" \
    --wal-dir "$WAL_DIR" --fsync-every 64 --checkpoint-every 2000 \
    --shards "$SHARDS" > "$LOG" 2>&1 &
  PID=$!
  PORT=$(wait_port "$LOG" "$PID")
  [ -n "$PORT" ] || fail "iteration $i: server never printed its port"
  # Stream the file as 200-row batches until the server dies, and SIGKILL
  # it after a random 0.1-0.7s.
  split -l 200 --filter="curl -s -o /dev/null -m 5 -H 'Expect:' \
    --data-binary @- http://127.0.0.1:$PORT/ingest || true" \
    "$INPUT" > /dev/null 2>&1 &
  PUMP=$!
  sleep "0.$(( (RANDOM % 7) + 1 ))"
  kill -9 "$PID" 2> /dev/null
  wait "$PID" 2> /dev/null
  kill "$PUMP" 2> /dev/null
  wait "$PUMP" 2> /dev/null

  # Recovery models restarting on healthy hardware: no fault injection.
  RECOVERY_LOG="$WORKDIR/recover_$i.log"
  env -u KANON_FAULT_SEED "$CLI" serve --recover-only --domain "$DOMAIN" \
    --k "$K" --shards "$SHARDS" \
    --wal-dir "$WAL_DIR" --fsync-every 64 --checkpoint-every 2000 \
    > "$RECOVERY_LOG" 2>&1 \
    || fail "iteration $i: recovery exited non-zero (see $RECOVERY_LOG)"

  # Exactly-once, per shard: every shard replays its own WAL directory and
  # its tree holds one record per assigned LSN, no more, no fewer —
  # double-replay or a lost logged record both break this equality.
  RECOVERED=0
  MAX_SHARD_RECOVERED=0
  for s in $(seq 0 $((SHARDS - 1))); do
    LINE=$(grep "^recovery shard=$s:" "$RECOVERY_LOG") \
      || fail "iteration $i: no recovery line for shard $s in $RECOVERY_LOG"
    R=$(echo "$LINE" | sed -n 's/.*recovered=\([0-9]*\).*/\1/p')
    NL=$(echo "$LINE" | sed -n 's/.*next_lsn=\([0-9]*\).*/\1/p')
    [ "$R" -eq $((NL - 1)) ] \
      || fail "iteration $i shard $s: recovered=$R != next_lsn-1=$((NL - 1))"
    RECOVERED=$((RECOVERED + R))
    [ "$R" -gt "$MAX_SHARD_RECOVERED" ] && MAX_SHARD_RECOVERED=$R
  done

  # A shard publishes on recovery only once it holds >= k records, so the
  # stitched snapshot (and its k bound) is owed whenever any shard does.
  if [ "$MAX_SHARD_RECOVERED" -ge "$K" ]; then
    SNAP=$(grep '^final snapshot:' "$RECOVERY_LOG") \
      || fail "iteration $i: no final snapshot despite $RECOVERED records"
    MIN_PART=$(echo "$SNAP" | sed -n 's/.*min_partition=\([0-9]*\).*/\1/p')
    [ "$MIN_PART" -ge "$K" ] \
      || fail "iteration $i: min_partition=$MIN_PART < k=$K"
  fi
  SEED=$(sed -n 's/^fault injection: seed=\([0-9]*\).*/\1/p' "$LOG" \
         | head -n 1)
  echo "iteration $i: recovered=$RECOVERED" \
       "min_partition=${MIN_PART:-n/a} fault_seed=${SEED:-off}" \
       "shards=$SHARDS ok"
done

echo "PASS: $ITERATIONS crash/recover iterations survived (shards=$SHARDS)"
rm -rf "$WORKDIR"
