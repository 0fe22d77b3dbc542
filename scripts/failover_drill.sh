#!/usr/bin/env bash
# Failover drill for dynallocd replication (docs/REPLICATION.md):
#
#   1. boot a durable primary serving its WAL as a replication stream,
#      and a hot standby subscribed to it (-replicate-from),
#   2. inject a crash plus live traffic over the primary's dgram data
#      plane (scripts/dgramc), wait for the standby to catch up (replica
#      lag 0 at the primary's durable seq),
#   3. kill -9 the primary and promote the standby via POST /promote
#      (unforced: the split-brain guard must first see the heartbeat
#      window lapse),
#   4. assert the promoted state matches the dead primary bit for bit
#      (loads + counters), and that the standby's dgram listener, absent
#      until promotion, now admits,
#   5. drive traffic at the promoted standby (dynrouter -drive over its
#      dgram address) until its detector re-fires, and gate the
#      fail-over recovery episode at 8x the Theorem 1 budget.
#
# Usage: scripts/failover_drill.sh
#
# Every daemon binds ephemeral ports and publishes them through port
# files, so concurrent CI jobs can never collide.
set -euo pipefail

N=64
CRASH_K=24

WORK="$(mktemp -d)"
PRIM_PID=""
STBY_PID=""
# Runs on EVERY exit path: kill both daemons, dump logs when failing.
cleanup() {
  rc=$?
  [ -n "$PRIM_PID" ] && kill -9 "$PRIM_PID" 2>/dev/null || true
  [ -n "$STBY_PID" ] && kill -9 "$STBY_PID" 2>/dev/null || true
  if [ "$rc" -ne 0 ]; then
    for log in primary.log standby.log router.log revived.log; do
      if [ -s "$WORK/$log" ]; then
        echo "failover-drill: $log (exit $rc):" >&2
        cat "$WORK/$log" >&2
      fi
    done
  fi
  rm -rf "$WORK"
  exit "$rc"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

say() { echo "failover-drill: $*"; }

go build -o "$WORK/dynallocd" ./cmd/dynallocd
go build -o "$WORK/dynrouter" ./cmd/dynrouter
go build -o "$WORK/dgramc" ./scripts/dgramc

wait_file() { # path
  for _ in $(seq 1 50); do
    [ -s "$1" ] && return 0
    sleep 0.2
  done
  say "never appeared: $1"; return 1
}

say "phase 1: boot primary (streaming) + hot standby"
"$WORK/dynallocd" -n "$N" -addr 127.0.0.1:0 -port-file "$WORK/primary.port" \
  -wal-dir "$WORK/primary-wal" -fsync always \
  -replica-listen 127.0.0.1:0 -replica-port-file "$WORK/stream.port" \
  -dgram-addr 127.0.0.1:0 -dgram-port-file "$WORK/primary.dgram" \
  >"$WORK/primary.log" 2>&1 &
PRIM_PID=$!
wait_file "$WORK/primary.port"
wait_file "$WORK/stream.port"
wait_file "$WORK/primary.dgram"
PADDR="$(cat "$WORK/primary.port")"
PDGRAM="$(cat "$WORK/primary.dgram")"

"$WORK/dynallocd" -n "$N" -addr 127.0.0.1:0 -port-file "$WORK/standby.port" \
  -wal-dir "$WORK/standby-wal" -fsync always -check-interval 250ms \
  -dgram-addr 127.0.0.1:0 -dgram-port-file "$WORK/standby.dgram" \
  -replicate-from "$(cat "$WORK/stream.port")" \
  >"$WORK/standby.log" 2>&1 &
STBY_PID=$!
wait_file "$WORK/standby.port"
SADDR="$(cat "$WORK/standby.port")"

say "phase 2: crash + traffic on the primary, wait for replica catch-up"
"$WORK/dgramc" -addr "$PDGRAM" crash 3 "$CRASH_K"
"$WORK/dgramc" -addr "$PDGRAM" admit 40
"$WORK/dgramc" -addr "$PDGRAM" free 10

# An un-promoted standby must refuse mutations: it has no data plane
# until promotion binds one.
if [ -e "$WORK/standby.dgram" ]; then
  say "standby bound its dgram listener before promotion"; exit 1
fi

PRIM_SEQ="$(curl -sf "http://$PADDR/state" | jq .wal_last_seq)"
caught_up=""
for i in $(seq 1 50); do
  APPLIED="$(curl -sf "http://$SADDR/state?summary=1" | jq .replica.applied_seq)"
  if [ "$APPLIED" = "$PRIM_SEQ" ]; then
    say "standby caught up at seq $APPLIED (poll $i)"
    caught_up=1
    break
  fi
  sleep 0.2
done
[ -n "$caught_up" ] || { say "standby never caught up ($APPLIED < $PRIM_SEQ)"; exit 1; }
curl -sf "http://$PADDR/state" >"$WORK/state_primary.json"

say "phase 3: kill -9 the primary, promote the standby"
kill -9 "$PRIM_PID"; wait "$PRIM_PID" 2>/dev/null || true; PRIM_PID=""
# Unforced promotion is refused (409) until the heartbeat window
# lapses — polling it IS the split-brain guard check.
promoted=""
for i in $(seq 1 40); do
  if curl -sf -X POST "http://$SADDR/promote" >"$WORK/promote.json" 2>/dev/null; then
    say "promoted on poll $i: $(cat "$WORK/promote.json")"
    promoted=1
    break
  fi
  sleep 0.25
done
[ -n "$promoted" ] || { say "standby never promoted"; exit 1; }
if [ "$(jq .forced "$WORK/promote.json")" != "false" ]; then
  say "dead-primary promotion should not need force"; exit 1
fi
if [ "$(jq .last_seq "$WORK/promote.json")" != "$PRIM_SEQ" ]; then
  say "promoted at seq $(jq .last_seq "$WORK/promote.json"), primary died at $PRIM_SEQ"; exit 1
fi

say "phase 4: promoted state must match the dead primary bit for bit"
curl -sf "http://$SADDR/state" >"$WORK/state_standby.json"
for field in .loads .n '.stats.total' '.stats.allocs' '.stats.frees'; do
  if ! diff <(jq -S "$field" "$WORK/state_primary.json") \
            <(jq -S "$field" "$WORK/state_standby.json") >/dev/null; then
    say "MISMATCH in $field across fail-over"
    diff <(jq -S "$field" "$WORK/state_primary.json") \
         <(jq -S "$field" "$WORK/state_standby.json") >&2 || true
    exit 1
  fi
done
say "state survived fail-over exactly (loads + counters)"

# Promotion bound the data plane, and it admits. The free keeps the
# ball count, so the recovery target phase 5 drives toward is the one
# the promoted detector was armed with.
wait_file "$WORK/standby.dgram"
SDGRAM="$(cat "$WORK/standby.dgram")"
"$WORK/dgramc" -addr "$SDGRAM" admit 1
"$WORK/dgramc" -addr "$SDGRAM" free 1
say "promoted standby admits over dgram at $SDGRAM"

# The inherited crash keeps the promoted store disrupted: that is the
# episode phase 5 recovers from.
if [ "$(curl -sf "http://$SADDR/state?summary=1" | jq .recovered)" != "false" ]; then
  say "promoted state is not disrupted; inherited crash missing?"; exit 1
fi

say "phase 5: drive the promoted standby until the detector re-fires"
# dynrouter over the one shard drives closed-loop admit/free pairs until
# its own detector sees the typical state. At -slack 1 its target is the
# standby's, so the traffic stops once the standby is recovered too and
# the standby's next check closes the episode at the same step count.
"$WORK/dynrouter" -shards "$SDGRAM" -addr "" -drive -crash 0 -slack 1 \
  >"$WORK/router.log" 2>&1 || { say "drive failed"; exit 1; }
grep 'recovered in' "$WORK/router.log"
recovered=""
for i in $(seq 1 40); do
  if curl -sf "http://$SADDR/state?summary=1" | jq -e '.recovered == true' >/dev/null; then
    say "standby detector re-fired (poll $i)"
    recovered=1
    break
  fi
  sleep 0.25
done
[ -n "$recovered" ] || { say "promoted standby never recovered"; exit 1; }

curl -sf "http://$SADDR/state?summary=1" >"$WORK/summary.json"
jq . "$WORK/summary.json"
# The fail-over recovery episode must land within 8x the Theorem 1
# budget — the same gate the chaos and cluster drills apply.
if ! jq -e '.episodes.last.steps <= 8 * .episodes.budget_steps' "$WORK/summary.json" >/dev/null; then
  say "fail-over recovery blew the budget gate: $(jq -c .episodes.last "$WORK/summary.json") vs budget $(jq .episodes.budget_steps "$WORK/summary.json")"
  exit 1
fi
say "recovery episode within 8x budget"

say "phase 6: kill -9 the promoted primary, restart on its wal-dir, check the parallel restore"
curl -sf "http://$SADDR/state" >"$WORK/state_promoted.json"
kill -9 "$STBY_PID"; wait "$STBY_PID" 2>/dev/null || true; STBY_PID=""
"$WORK/dynallocd" -n "$N" -addr 127.0.0.1:0 -port-file "$WORK/revived.port" \
  -wal-dir "$WORK/standby-wal" -fsync always \
  -dgram-addr 127.0.0.1:0 -dgram-port-file "$WORK/revived.dgram" \
  >"$WORK/revived.log" 2>&1 &
STBY_PID=$!
wait_file "$WORK/revived.port"
RADDR="$(cat "$WORK/revived.port")"
for _ in $(seq 1 50); do
  curl -sf "http://$RADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

# The restart restores through the parallel replay pipeline; the boot
# log prints the restore-phase breakdown (checkpoint load / WAL replay /
# stale-suffix fence) and the worker count, which must be > 1.
if ! grep -E 'restore breakdown: checkpoint .*, replay .*, fence .*, workers [0-9]+' "$WORK/revived.log"; then
  say "revived-primary log is missing the restore-phase breakdown"; exit 1
fi
RESTORE_WORKERS="$(grep -oE 'restore breakdown: .* workers [0-9]+' "$WORK/revived.log" | grep -oE '[0-9]+$' | tail -1)"
if [ "${RESTORE_WORKERS:-0}" -le 1 ]; then
  say "restore ran with workers=$RESTORE_WORKERS; expected a parallel (>1) replay"; exit 1
fi
say "restore breakdown present, replay ran with $RESTORE_WORKERS workers"

curl -sf "http://$RADDR/state" >"$WORK/state_revived.json"
for field in .loads .n '.stats.total' '.stats.allocs' '.stats.frees'; do
  if ! diff <(jq -S "$field" "$WORK/state_promoted.json") \
            <(jq -S "$field" "$WORK/state_revived.json") >/dev/null; then
    say "MISMATCH in $field across the post-promotion restart"
    diff <(jq -S "$field" "$WORK/state_promoted.json") \
         <(jq -S "$field" "$WORK/state_revived.json") >&2 || true
    exit 1
  fi
done
say "promoted state survived its own kill -9 exactly (parallel restore)"

kill "$STBY_PID" 2>/dev/null || true
wait "$STBY_PID" 2>/dev/null || true
STBY_PID=""
say "PASS"
