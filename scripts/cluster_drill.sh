#!/usr/bin/env bash
# Cluster recovery drill for dynrouter + a 3-shard dynallocd fleet
# (docs/CLUSTER.md):
#
#   1. boot 3 durable shard daemons (dgram listeners on ephemeral
#      ports) and a router with continuous traffic, await the boot
#      recovery episode,
#   2. crash one shard's bin directly over its dgram listener
#      (scripts/dgramc) and assert the cluster detector re-fires within
#      the Theorem 1 budget gate,
#   3. kill -9 one shard mid-traffic and assert the router degrades
#      (d-1 probing) with ZERO client-visible errors,
#   4. restart the shard on the same address, assert its state came
#      back from the WAL and the cluster detector re-fires,
#   5. stop the router gracefully and check its exit metrics snapshot
#      holds the detector's recovered gauge and recovery histogram.
#
# Usage: scripts/cluster_drill.sh
set -euo pipefail

N=1024           # bins per shard
CRASH_K=512      # crash mass for the detector drill
BUDGET_MULT=8    # recovery gate: episode steps <= mult * budget

WORK="$(mktemp -d)"
PIDS=()
# Runs on EVERY exit path: kill the fleet, dump logs when failing.
cleanup() {
  rc=$?
  for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  if [ "$rc" -ne 0 ]; then
    for f in "$WORK"/*.log; do
      [ -s "$f" ] || continue
      echo "cluster-drill: ==== $f (exit $rc) ====" >&2
      tail -40 "$f" >&2
    done
  fi
  rm -rf "$WORK"
  exit "$rc"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

say() { echo "cluster-drill: $*"; }

go build -o "$WORK/dynallocd" ./cmd/dynallocd
go build -o "$WORK/dynrouter" ./cmd/dynrouter
go build -o "$WORK/dgramc" ./scripts/dgramc

wait_file() { # path
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  say "timed out waiting for $1"; return 1
}

start_shard() { # index [extra flags...]
  local i="$1"; shift
  rm -f "$WORK/shard$i.port"
  "$WORK/dynallocd" -addr "" -n "$N" -seed "$((100 + i))" \
    -wal-dir "$WORK/wal$i" -fsync always -check-interval 250ms \
    -dgram-addr "${SHARD_ADDR[$i]:-127.0.0.1:0}" \
    -dgram-port-file "$WORK/shard$i.port" \
    "$@" >>"$WORK/shard$i.log" 2>&1 &
  PIDS+=("$!")
  eval "SHARD_PID_$i=$!"
  disown "$!" # quiet bash's "Killed" job-control noise on kill -9
  wait_file "$WORK/shard$i.port"
  SHARD_ADDR[$i]="$(cat "$WORK/shard$i.port")"
}

declare -A SHARD_ADDR
say "phase 1: boot 3 durable shards + router with traffic"
for i in 0 1 2; do start_shard "$i"; done
say "shards at ${SHARD_ADDR[0]} ${SHARD_ADDR[1]} ${SHARD_ADDR[2]}"

rm -f "$WORK/router.port"
"$WORK/dynrouter" -shards "${SHARD_ADDR[0]},${SHARD_ADDR[1]},${SHARD_ADDR[2]}" \
  -d 2 -addr 127.0.0.1:0 -port-file "$WORK/router.port" \
  -traffic 4 -check-interval 200ms -metrics "$WORK/router-metrics.json" \
  >"$WORK/router.log" 2>&1 &
ROUTER_PID=$!
PIDS+=("$ROUTER_PID")
disown "$ROUTER_PID"
wait_file "$WORK/router.port"
RADDR="$(cat "$WORK/router.port")"
say "router at $RADDR"

poll() { # jq-expr timeout-polls description
  for _ in $(seq 1 "$2"); do
    if curl -sf "http://$RADDR/state" | jq -e "$1" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.5
  done
  say "timed out waiting for: $3"
  curl -sf "http://$RADDR/state?summary=1" >&2 || true
  return 1
}

poll '.status.recovered == true' 60 "boot recovery"
say "cluster recovered from boot"

say "phase 2: crash shard 1 bin 0 (+$CRASH_K balls) over its dgram listener"
# The crash bypasses the router, so nothing marks the cluster detector
# disrupted: its episode opens by drift at the next 200 ms sweep, and
# the steps before that sweep are not counted against the budget.
"$WORK/dgramc" -addr "${SHARD_ADDR[1]}" crash 0 "$CRASH_K"
poll '.status.recovered == false' 20 "detector to observe the crash"
poll '.status.recovered == true' 120 "recovery from the crash"
RATIO="$(curl -sf "http://$RADDR/state" \
  | jq "(.last_episode.steps / .target.budget_steps)")"
say "recovered from the crash at ${RATIO}x the Theorem 1 budget"
if ! jq -ne "$RATIO <= $BUDGET_MULT" >/dev/null; then
  say "FAIL: recovery ratio $RATIO exceeds the ${BUDGET_MULT}x gate"
  exit 1
fi

say "phase 3: kill -9 shard 2 mid-traffic"
ERRS_BEFORE="$(curl -sf "http://$RADDR/state" | jq .traffic.errors)"
kill -9 "$SHARD_PID_2"
poll '.status.degraded == true' 30 "router to mark the dead shard down"
say "router degraded (d-1 probing); letting traffic run through the outage"
sleep 2
STATE="$(curl -sf "http://$RADDR/state")"
LIVE="$(echo "$STATE" | jq .status.live_shards)"
ERRS="$(echo "$STATE" | jq .traffic.errors)"
OPS="$(echo "$STATE" | jq .traffic.ops)"
DEAD_DOWN="$(echo "$STATE" | jq '.shards[2].down')"
say "outage state: live_shards=$LIVE ops=$OPS errors=$ERRS shard2.down=$DEAD_DOWN"
[ "$LIVE" = "2" ] || { say "FAIL: expected 2 live shards, got $LIVE"; exit 1; }
[ "$DEAD_DOWN" = "true" ] || { say "FAIL: dead shard not marked down"; exit 1; }
if [ "$ERRS" != "$ERRS_BEFORE" ]; then
  say "FAIL: client-visible errors during the outage ($ERRS_BEFORE -> $ERRS)"
  exit 1
fi
say "zero client-visible errors while degraded"

say "phase 4: restart shard 2 on the same address (WAL restore)"
start_shard 2
if ! grep -q "restored" "$WORK/shard2.log"; then
  say "FAIL: restarted shard did not restore from its WAL"
  exit 1
fi
say "shard 2 restored from its WAL at ${SHARD_ADDR[2]}"
poll '.status.degraded == false' 60 "router to revive the shard"
poll '.status.recovered == true' 120 "cluster recovery after the restart"
FINAL="$(curl -sf "http://$RADDR/state")"
FERRS="$(echo "$FINAL" | jq .traffic.errors)"
FEPS="$(echo "$FINAL" | jq .episodes)"
say "cluster recovered; episodes=$FEPS traffic_errors=$FERRS"
if [ "$FERRS" != "0" ]; then
  say "FAIL: $FERRS client-visible errors across the drill"
  exit 1
fi
echo "$FINAL" | jq '{status: .status, traffic: .traffic, last_episode: .last_episode}'

say "phase 5: SIGTERM the router, check its metrics snapshot"
kill -TERM "$ROUTER_PID"
for _ in $(seq 1 100); do
  kill -0 "$ROUTER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$ROUTER_PID" 2>/dev/null; then
  say "FAIL: router still running 10s after SIGTERM"
  exit 1
fi
for want in '"router.recovered": *1' '"router.recovery.steps"'; do
  if ! grep -q "$want" "$WORK/router-metrics.json"; then
    say "FAIL: router metrics snapshot lacks $want"
    exit 1
  fi
done
say "PASS"
