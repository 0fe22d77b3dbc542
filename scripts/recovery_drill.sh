#!/usr/bin/env bash
# Restart-recovery drill for dynallocd (docs/SERVING.md):
#
#   1. boot a durable daemon (-wal-dir, -fsync always), inject a crash
#      plus some live traffic over its dgram data plane (scripts/dgramc),
#   2. kill -9 it mid-flight,
#   3. restart and assert the full /state load vector matches exactly,
#   4. kill -9 again, restart with the traffic driver, and assert the
#      recovery detector re-fires (/healthz recovered:true).
#
# Usage: scripts/recovery_drill.sh [port]
#
# With no argument the daemon binds an ephemeral port (-addr :0) and
# publishes the resolved address through -port-file, so concurrent CI
# jobs can never collide; pass a port to pin it. The dgram listener is
# always ephemeral (-dgram-port-file).
set -euo pipefail

PORT="${1:-0}"
ADDR=""  # resolved from the port file after each start
DADDR="" # the dgram data plane, likewise
N=4096
CRASH_K=1024

WORK="$(mktemp -d)"
WALDIR="$WORK/wal"
PID=""
# Runs on EVERY exit path — normal, set -e failure, or a signal: kill
# the daemon so no orphan keeps the port, dump its log to stderr when
# the drill is failing (any nonzero rc), then remove the workdir.
cleanup() {
  rc=$?
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
  if [ "$rc" -ne 0 ] && [ -s "$WORK/log" ]; then
    echo "recovery-drill: daemon log (exit $rc):" >&2
    cat "$WORK/log" >&2
  fi
  rm -rf "$WORK"
  exit "$rc"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

say() { echo "recovery-drill: $*"; }

go build -o "$WORK/dynallocd" ./cmd/dynallocd
go build -o "$WORK/dgramc" ./scripts/dgramc

wait_healthy() {
  for _ in $(seq 1 50); do
    curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  say "daemon never became healthy"; return 1
}

start_daemon() { # args: extra flags...
  rm -f "$WORK/http.port" "$WORK/dgram.port"
  "$WORK/dynallocd" -n "$N" -addr "127.0.0.1:${PORT}" \
    -port-file "$WORK/http.port" -wal-dir "$WALDIR" -fsync always \
    -dgram-addr 127.0.0.1:0 -dgram-port-file "$WORK/dgram.port" \
    -check-interval 250ms "$@" >"$WORK/log" 2>&1 &
  PID=$!
  for _ in $(seq 1 50); do
    [ -s "$WORK/http.port" ] && [ -s "$WORK/dgram.port" ] && break
    sleep 0.2
  done
  if [ ! -s "$WORK/http.port" ] || [ ! -s "$WORK/dgram.port" ]; then
    say "daemon never published its ports"; return 1
  fi
  ADDR="$(cat "$WORK/http.port")"
  DADDR="$(cat "$WORK/dgram.port")"
  wait_healthy
}

say "phase 1: boot durable daemon, inject crash + traffic"
start_daemon
"$WORK/dgramc" -addr "$DADDR" crash 3 "$CRASH_K"
"$WORK/dgramc" -addr "$DADDR" admit 20
"$WORK/dgramc" -addr "$DADDR" free 5
curl -sf "http://$ADDR/state" >"$WORK/state_before.json"

say "phase 2: kill -9 and restart"
kill -9 "$PID"; wait "$PID" 2>/dev/null || true; PID=""
start_daemon
curl -sf "http://$ADDR/state" >"$WORK/state_after.json"

# The restart restores through the parallel replay pipeline; the boot
# log prints the restore-phase breakdown (checkpoint load / WAL replay /
# stale-suffix fence) and the worker count, which must be > 1 — a
# sequential restore here means the pipeline silently fell back.
if ! grep -E 'restore breakdown: checkpoint .*, replay .*, fence .*, workers [0-9]+' "$WORK/log"; then
  say "restart log is missing the restore-phase breakdown"; exit 1
fi
RESTORE_WORKERS="$(grep -oE 'restore breakdown: .* workers [0-9]+' "$WORK/log" | grep -oE '[0-9]+$' | tail -1)"
if [ "${RESTORE_WORKERS:-0}" -le 1 ]; then
  say "restore ran with workers=$RESTORE_WORKERS; expected a parallel (>1) replay"; exit 1
fi
say "restore breakdown present, replay ran with $RESTORE_WORKERS workers"

# The load vector and ball/op counters must survive the hard kill
# bit for bit (-fsync always: nothing in flight is lost).
for field in .loads .n '.stats.total' '.stats.allocs' '.stats.frees'; do
  if ! diff <(jq -S "$field" "$WORK/state_before.json") \
            <(jq -S "$field" "$WORK/state_after.json") >/dev/null; then
    say "MISMATCH in $field across restart"
    diff <(jq -S "$field" "$WORK/state_before.json") \
         <(jq -S "$field" "$WORK/state_after.json") >&2 || true
    exit 1
  fi
done
say "state survived kill -9 exactly (loads + counters)"

# The restored state must still look disrupted: that is what the
# recovery drill in phase 3 is recovering from.
if [ "$(curl -sf "http://$ADDR/state?summary=1" | jq .recovered)" != "false" ]; then
  say "restored state is not disrupted; crash did not survive?"; exit 1
fi

say "phase 3: kill -9 again, restart with the driver, await recovery"
kill -9 "$PID"; wait "$PID" 2>/dev/null || true; PID=""
start_daemon -drive -stay
for i in $(seq 1 120); do
  if curl -sf "http://$ADDR/state?summary=1" | jq -e '.recovered == true' >/dev/null; then
    say "recovered after restart (poll $i)"
    curl -sf "http://$ADDR/state?summary=1"
    say "PASS"
    exit 0
  fi
  sleep 0.5
done
say "daemon did not recover within 60s"
exit 1
