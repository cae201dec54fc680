#!/bin/sh
# Network smoke: drive sweep_serverd with sweep_client over a request
# file and diff the responses byte for byte against the stdin
# sweep_server path (after a per-line sort: cell delivery order within a
# cache miss varies with the pool schedule; cell CONTENT, the done/error
# lines and the default "line-N" ids may not). Runs the serial and the
# pipelined client against fresh daemons (a shared daemon would turn the
# second run's cold submits into cache hits and legitimately change the
# done-line flags), then a warm pass (the file twice, so the repeats are
# answered inline on the daemon's event-loop thread), and pins the
# SIGTERM graceful drain (daemon exit 0).
#
# Usage: net_smoke.sh BUILD_DIR REQUEST_FILE
set -u

BUILD=$1
REQUESTS=$2
SMOKE_NAME=net_smoke
. "$(dirname "$0")/smoke_lib.sh"
smoke_init
DAEMON_PID=""

start_daemon() {
  rm -f "$TMP/port"
  "$BUILD/sweep_serverd" --port=0 --port-file="$TMP/port" \
      --cache-capacity=8 2>>"$TMP/daemon.log" &
  DAEMON_PID=$!
  track_pid "$DAEMON_PID"
  wait_for_port "$TMP/port" "$DAEMON_PID" "daemon"
  PORT=$(cat "$TMP/port")
}

stop_daemon() {
  expect_drain "$DAEMON_PID" "daemon"
  DAEMON_PID=""
}

# Reference: the stdin path over the same file. The smoke file contains
# one deliberately invalid request, so the expected exit code is 3.
"$BUILD/sweep_server" --cache-capacity=8 --input="$REQUESTS" \
    >"$TMP/stdin.jsonl" 2>/dev/null
rc=$?
[ $rc -eq 3 ] || fail "sweep_server exit code $rc (expected 3: the file contains an invalid request)"
sort "$TMP/stdin.jsonl" >"$TMP/stdin.sorted"

# Serial client against a fresh daemon.
start_daemon
"$BUILD/sweep_client" --port="$PORT" --input="$REQUESTS" \
    >"$TMP/serial.jsonl" || fail "serial client failed"
stop_daemon
sort "$TMP/serial.jsonl" >"$TMP/serial.sorted"
diff -u "$TMP/stdin.sorted" "$TMP/serial.sorted" >&2 \
    || fail "serial responses differ from the stdin path"

# Pipelined client against a fresh daemon.
start_daemon
"$BUILD/sweep_client" --port="$PORT" --pipeline --input="$REQUESTS" \
    >"$TMP/pipeline.jsonl" || fail "pipelined client failed"
stop_daemon
sort "$TMP/pipeline.jsonl" >"$TMP/pipeline.sorted"
diff -u "$TMP/stdin.sorted" "$TMP/pipeline.sorted" >&2 \
    || fail "pipelined responses differ from the stdin path"

# Warm pass: the file twice, through the serial client, against one fresh
# daemon. Each request is sent only after the previous answer, so the
# repeats are memory-resident identity hits when admitted and the daemon
# answers them on its event-loop thread; a one-burst pipelined client
# would have every line priced before the first copy computed, and none
# would be. The stats answer proves the inline path ran.
cat "$REQUESTS" "$REQUESTS" >"$TMP/doubled.jsonl"
"$BUILD/sweep_server" --cache-capacity=8 --input="$TMP/doubled.jsonl" \
    >"$TMP/stdin_doubled.jsonl" 2>/dev/null
rc=$?
[ $rc -eq 3 ] || fail "sweep_server exit code $rc on the doubled file (expected 3)"
sort "$TMP/stdin_doubled.jsonl" >"$TMP/stdin_doubled.sorted"
echo '{"type": "stats", "id": "warm-stats"}' >"$TMP/stats.jsonl"
start_daemon
"$BUILD/sweep_client" --port="$PORT" --input="$TMP/doubled.jsonl" \
    >"$TMP/warm.jsonl" || fail "warm-pass client failed"
"$BUILD/sweep_client" --port="$PORT" --input="$TMP/stats.jsonl" \
    >"$TMP/warm_stats.jsonl" || fail "warm-pass stats request failed"
stop_daemon
sort "$TMP/warm.jsonl" >"$TMP/warm.sorted"
diff -u "$TMP/stdin_doubled.sorted" "$TMP/warm.sorted" >&2 \
    || fail "warm-pass responses differ from the stdin path"
grep -q '"answered_inline":[1-9]' "$TMP/warm_stats.jsonl" \
    || fail "warm pass answered no identity hit on the event-loop thread: $(cat "$TMP/warm_stats.jsonl")"

echo "net_smoke: OK (serial + pipelined + warm inline passes byte-identical to the stdin path, graceful drain clean)"
exit 0
