#!/usr/bin/env bash
# Loopback HTTP serve smoke: start `kanon_cli serve --listen` on an
# ephemeral port, drive every endpoint with curl, SIGTERM the process and
# assert a clean graceful drain:
#
#   1. every endpoint answers with the documented shape (ingest ack,
#      release JSON, healthz, Prometheus /metrics),
#   2. a wrong method is 405 with Allow, and HEAD answers 200 headers,
#   3. the process exits 0 on SIGTERM after printing "draining",
#   4. a full release is byte-identical across two GETs of one
#      publication, and its epoch advances after a further publication,
#   5. zero lost acknowledged records: the final snapshot holds at least
#      every record a client saw {"accepted":N} for (here: exactly, since
#      this script is the only writer).
#
# Usage: http_serve_smoke.sh <kanon_cli> [workdir]
# Env:   KANON_SHARDS=N   serve with N shards (default 1): ingest fans out
#                         across shard queues and the release below is the
#                         stitched per-shard snapshot
#        KANON_DP=1       serve with a small --dp-budget and drive the DP
#                         read side: /release/dp must answer the same bytes
#                         twice (memoized release), /release/dp/query must
#                         answer a range count, over-budget draws must be
#                         429, malformed params 400, and /metrics must
#                         export the kanon_dp_* and
#                         kanon_release_avg_range_error series

set -u

CLI=${1:?usage: http_serve_smoke.sh <kanon_cli> [workdir]}
WORKDIR=${2:-$(mktemp -d /tmp/kanon_http_smoke_XXXXXX)}
K=5
ROWS=4000
BATCH=200
SHARDS=${KANON_SHARDS:-1}

SHARD_ARGS=""
if [ "$SHARDS" -gt 1 ]; then
  SHARD_ARGS="--shards $SHARDS"
fi
if [ -n "${KANON_DP:-}" ]; then
  # A budget that fits one 0.9-epsilon draw but not a second distinct one:
  # the 0.2 draw below must be the typed 429. The fixed --dp-key secret
  # makes the DP bodies reproducible across runs (noise is a server-held
  # key derivation, never a client seed); --dp-metrics-utility opts the
  # truth-derived utility pair into /metrics (this scrape is trusted).
  SHARD_ARGS="$SHARD_ARGS --dp-budget 1.0 --dp-key smoke-secret"
  SHARD_ARGS="$SHARD_ARGS --dp-metrics-utility"
fi

mkdir -p "$WORKDIR"
LOG="$WORKDIR/serve.log"
WAL_DIR="$WORKDIR/wal"

fail() { echo "FAIL: $*" >&2; exit 1; }

# --- A malformed flag value is a usage error, before anything listens ----
"$CLI" serve --listen 127.0.0.1:0 --domain "0:1000,0:1000" \
  --snapshot-every abc > "$WORKDIR/usage.log" 2>&1
RC=$?
[ "$RC" -eq 2 ] || fail "--snapshot-every abc exited $RC, want 2"
grep -q '^listening on' "$WORKDIR/usage.log" \
  && fail "--snapshot-every abc started a listener"
echo "malformed flag value refused (exit 2)"

# --- Start the server (ephemeral port, WAL on, HTTP-only ingest) ---------
"$CLI" serve --listen 127.0.0.1:0 --domain "0:1000,0:1000" --k "$K" \
  --snapshot-every 500 --wal-dir "$WAL_DIR" $SHARD_ARGS > "$LOG" 2>&1 &
PID=$!
trap 'kill -9 $PID 2> /dev/null' EXIT

PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$LOG")
  [ -n "$PORT" ] && break
  kill -0 "$PID" 2> /dev/null || fail "server died at startup (see $LOG)"
  sleep 0.05
done
[ -n "$PORT" ] || fail "server never printed its port (see $LOG)"
BASE="http://127.0.0.1:$PORT"
echo "server up on $BASE"

# --- Ingest ROWS records in BATCH-row NDJSON posts -----------------------
ACKED=0
awk -v n="$ROWS" 'BEGIN {
  srand(7);
  for (i = 0; i < n; i++)
    printf "%.6f,%.6f,%d\n", rand() * 1000, rand() * 1000, int(rand() * 8);
}' > "$WORKDIR/rows.csv"
while IFS= read -r resp; do
  N=$(echo "$resp" | sed -n 's/.*"accepted":\([0-9]*\).*/\1/p')
  [ -n "$N" ] || fail "ingest answered without an accepted count: $resp"
  ACKED=$((ACKED + N))
done < <(split -l "$BATCH" \
  --filter="curl -sS -m 10 -H 'Expect:' --data-binary @- $BASE/ingest; echo" \
  "$WORKDIR/rows.csv")
[ "$ACKED" -eq "$ROWS" ] || fail "acked $ACKED of $ROWS ingested records"
echo "ingested $ACKED records over HTTP"

# --- Read side: release, multigranular query, healthz, metrics -----------
RELEASE=$(curl -sS -m 10 "$BASE/release?summary=1")
echo "$RELEASE" | grep -q '"records":' || fail "bad /release: $RELEASE"

QUERY=$(curl -sS -m 10 "$BASE/release/query?k1=$((K * 4))&summary=1")
echo "$QUERY" | grep -q "\"k1\":$((K * 4))" \
  || fail "bad /release/query: $QUERY"

HEALTH_CODE=$(curl -sS -m 10 -o "$WORKDIR/health.json" \
  -w '%{http_code}' "$BASE/healthz")
[ "$HEALTH_CODE" = 200 ] || fail "healthz answered $HEALTH_CODE"
grep -q '"health":"serving"' "$WORKDIR/health.json" \
  || fail "bad healthz body: $(cat "$WORKDIR/health.json")"

curl -sS -m 10 "$BASE/metrics" > "$WORKDIR/metrics.txt"
for metric in kanon_inserted_total kanon_wal_appended_total \
              kanon_http_requests_total kanon_http_request_latency_ms \
              kanon_build_info kanon_shards; do
  grep -q "$metric" "$WORKDIR/metrics.txt" \
    || fail "/metrics is missing $metric"
done
grep -q "kanon_inserted_total $ROWS" "$WORKDIR/metrics.txt" \
  || fail "/metrics inserted_total != $ROWS"
grep -q "^kanon_shards $SHARDS$" "$WORKDIR/metrics.txt" \
  || fail "/metrics kanon_shards != $SHARDS"
TYPED_TWICE=$(grep '^# TYPE' "$WORKDIR/metrics.txt" | awk '{print $3}' \
  | sort | uniq -d)
[ -z "$TYPED_TWICE" ] \
  || fail "/metrics types these names more than once: $TYPED_TWICE"
if [ "$SHARDS" -gt 1 ]; then
  for s in $(seq 0 $((SHARDS - 1))); do
    grep -q "kanon_shard_inserted_total{shard=\"$s\"}" \
      "$WORKDIR/metrics.txt" \
      || fail "/metrics is missing per-shard series for shard $s"
  done
fi
if [ -n "${KANON_DP:-}" ]; then
  # The DP release must be memoized: two GETs with the same epsilon return
  # byte-identical bodies and the epoch in a header, not the body. The
  # body must carry no noise-source material (no seed, no key).
  curl -sS -m 10 "$BASE/release/dp?epsilon=0.9" > "$WORKDIR/dp1.json"
  grep -q '"semantics":"dp"' "$WORKDIR/dp1.json" \
    || fail "bad /release/dp: $(cat "$WORKDIR/dp1.json")"
  grep -q '"cells":\[' "$WORKDIR/dp1.json" \
    || fail "/release/dp carries no cells: $(cat "$WORKDIR/dp1.json")"
  grep -q '"epoch"' "$WORKDIR/dp1.json" \
    && fail "/release/dp leaks the epoch into the DP body"
  grep -qE '"(seed|key)"' "$WORKDIR/dp1.json" \
    && fail "/release/dp leaks noise-source material into the DP body"
  curl -sS -m 10 "$BASE/release/dp?epsilon=0.9" > "$WORKDIR/dp2.json"
  cmp -s "$WORKDIR/dp1.json" "$WORKDIR/dp2.json" \
    || fail "two /release/dp GETs with one epsilon differ"

  DP_QUERY=$(curl -sS -m 10 \
    "$BASE/release/dp/query?lo=0,0&hi=500,1000&epsilon=0.9")
  echo "$DP_QUERY" | grep -q '"count":' \
    || fail "bad /release/dp/query: $DP_QUERY"

  # A second distinct draw would spend 0.9 + 0.2 > 1.0: typed 429.
  CODE=$(curl -sS -m 10 -o /dev/null -w '%{http_code}' \
    "$BASE/release/dp?epsilon=0.2")
  [ "$CODE" = 429 ] || fail "over-budget /release/dp answered $CODE, want 429"
  # Unknown and malformed params are 400s, never ignored — including the
  # retired client seed parameter (noise comes only from the server key).
  CODE=$(curl -sS -m 10 -o /dev/null -w '%{http_code}' \
    "$BASE/release/dp?eps=1")
  [ "$CODE" = 400 ] || fail "unknown DP param answered $CODE, want 400"
  CODE=$(curl -sS -m 10 -o /dev/null -w '%{http_code}' \
    "$BASE/release/dp?epsilon=0.9&seed=7")
  [ "$CODE" = 400 ] || fail "client seed param answered $CODE, want 400"
  CODE=$(curl -sS -m 10 -o /dev/null -w '%{http_code}' \
    "$BASE/release/dp/query?lo=0&hi=1,1&epsilon=0.9")
  [ "$CODE" = 400 ] || fail "short DP bounds answered $CODE, want 400"

  curl -sS -m 10 "$BASE/metrics" > "$WORKDIR/metrics.txt"
  for metric in kanon_dp_budget kanon_dp_budget_spent \
                kanon_dp_lifetime_budget kanon_dp_lifetime_spent \
                kanon_dp_releases_total kanon_dp_cache_hits_total \
                kanon_dp_rejected_total kanon_dp_evicted_total \
                kanon_dp_height kanon_release_avg_range_error; do
    grep -q "$metric" "$WORKDIR/metrics.txt" \
      || fail "/metrics is missing $metric"
  done
  grep -q '^kanon_dp_rejected_total 1$' "$WORKDIR/metrics.txt" \
    || fail "/metrics kanon_dp_rejected_total != 1 after the 429"
  echo "dp read side ok (release memoized, query, 429, 400s, metrics)"
fi
# --- Render once per publication ----------------------------------------
# Two full GETs of one publication return identical bytes (the second is
# the memoized body). The ingest thread may still publish the tail of the
# upload, so a pair that straddles a publication is fetched again.
FULL="$BASE/release/query?k1=$((K * 2))"
epoch_of() { sed -n 's/^{"epoch":\([0-9]*\),.*/\1/p' "$1"; }
SAME=""
for _ in $(seq 1 20); do
  curl -sS -m 10 "$FULL" > "$WORKDIR/full1.json"
  curl -sS -m 10 "$FULL" > "$WORKDIR/full2.json"
  grep -q '"partitions":\[{"count":' "$WORKDIR/full1.json" \
    || fail "bad full /release/query: $(head -c 300 "$WORKDIR/full1.json")"
  [ "$(epoch_of "$WORKDIR/full1.json")" = "$(epoch_of "$WORKDIR/full2.json")" ] \
    || continue
  cmp -s "$WORKDIR/full1.json" "$WORKDIR/full2.json" \
    || fail "two full /release/query GETs of one epoch differ"
  SAME=1
  break
done
[ -n "$SAME" ] || fail "no two full /release/query GETs saw the same epoch"
EPOCH=$(epoch_of "$WORKDIR/full1.json")

# A further publication advances the body's epoch: some shard receives at
# least 500 of 500*SHARDS new records, which crosses --snapshot-every.
MORE=$((500 * SHARDS))
awk -v n="$MORE" 'BEGIN {
  srand(11);
  for (i = 0; i < n; i++)
    printf "%.6f,%.6f,%d\n", rand() * 1000, rand() * 1000, int(rand() * 8);
}' | curl -sS -m 10 -H 'Expect:' --data-binary @- "$BASE/ingest" \
  > "$WORKDIR/more.json"
grep -q "\"accepted\":$MORE" "$WORKDIR/more.json" \
  || fail "second ingest not fully acked: $(cat "$WORKDIR/more.json")"
ROWS=$((ROWS + MORE))
ACKED=$((ACKED + MORE))
ADVANCED=""
for _ in $(seq 1 100); do
  curl -sS -m 10 "$FULL" > "$WORKDIR/full3.json"
  if [ "$(epoch_of "$WORKDIR/full3.json")" -gt "$EPOCH" ]; then
    ADVANCED=1
    break
  fi
  sleep 0.1
done
[ -n "$ADVANCED" ] \
  || fail "body epoch stayed at $EPOCH after $MORE more records"
echo "release rendered once per publication (epoch $EPOCH -> $(epoch_of "$WORKDIR/full3.json"))"

echo "read side ok (release, query, healthz, metrics)"

# --- Error mapping: malformed ingest is 400, unknown route 404 -----------
CODE=$(curl -sS -m 10 -o /dev/null -w '%{http_code}' \
  -H 'Expect:' --data-binary 'not-a-record' "$BASE/ingest")
[ "$CODE" = 400 ] || fail "malformed ingest answered $CODE, want 400"
CODE=$(curl -sS -m 10 -o /dev/null -w '%{http_code}' "$BASE/nope")
[ "$CODE" = 404 ] || fail "unknown route answered $CODE, want 404"

# --- Route policy: a wrong method is 405 + Allow, HEAD has no body -------
CODE=$(curl -sS -m 10 -o /dev/null -D "$WORKDIR/delete.hdr" \
  -w '%{http_code}' -X DELETE "$BASE/release")
[ "$CODE" = 405 ] || fail "DELETE /release answered $CODE, want 405"
grep -qi '^Allow: GET' "$WORKDIR/delete.hdr" \
  || fail "405 carries no 'Allow: GET': $(cat "$WORKDIR/delete.hdr")"
curl -sI -m 10 "$BASE/healthz" > "$WORKDIR/head.hdr"
head -1 "$WORKDIR/head.hdr" | grep -q '^HTTP/1.1 200' \
  || fail "HEAD /healthz answered: $(head -1 "$WORKDIR/head.hdr")"
grep -qi '^Content-Length: [1-9]' "$WORKDIR/head.hdr" \
  || fail "HEAD /healthz lacks the GET's Content-Length"
echo "route policy ok (405 + Allow, HEAD)"

# --- Graceful drain on SIGTERM -------------------------------------------
kill -TERM "$PID"
DRAIN_OK=""
for _ in $(seq 1 100); do
  kill -0 "$PID" 2> /dev/null || { DRAIN_OK=1; break; }
  sleep 0.1
done
[ -n "$DRAIN_OK" ] || fail "server did not exit within 10s of SIGTERM"
wait "$PID"
RC=$?
trap - EXIT
[ "$RC" -eq 0 ] || fail "server exited $RC after SIGTERM (see $LOG)"
grep -q '^draining (SIGTERM)' "$LOG" || fail "no drain line in $LOG"

# Zero lost acknowledged records: the final snapshot covers every acked
# record (this script was the only writer, so exactly ROWS).
FINAL=$(grep '^final snapshot:' "$LOG") \
  || fail "no final snapshot line in $LOG"
RECORDS=$(echo "$FINAL" | sed -n 's/.*records=\([0-9]*\).*/\1/p')
[ "$RECORDS" -eq "$ROWS" ] \
  || fail "final snapshot has $RECORDS records, acked $ROWS"
HTTP_ACKED=$(sed -n 's/.*http_accepted_records=\([0-9]*\).*/\1/p' "$LOG")
[ "$HTTP_ACKED" -eq "$ROWS" ] \
  || fail "server counted $HTTP_ACKED accepted records, client acked $ROWS"

echo "PASS: serve smoke (ingest=$ACKED, drain clean, snapshot=$RECORDS)"
rm -rf "$WORKDIR"
