#!/usr/bin/env bash
# Chaos shard smoke: the multi-process kill -9 pin. Three real
# cohmeleon worker processes shard one sweep grid over one shared cache
# directory via -shared leases; one worker is SIGKILL'd while it holds
# a lease. The survivors must reclaim the victim's orphaned cells and
# finish, every surviving worker's report must be byte-identical to a
# single-process -fidelity full reference run (modulo the wall-clock
# footer lines), the store must fsck clean, and every reclaimed cell
# must be counted exactly once (one tokened reclaim marker per reclaim
# on disk), at least once in all. Run it from the repo root:
#   bash scripts/chaos_shard_smoke.sh
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin="$work/cohmeleon"
go build -o "$bin" ./cmd/cohmeleon

args=(run -profile tiny -scenarios 8 -fidelity full)

# Reference: the single-process run.
"$bin" "${args[@]}" -out "$work/ref.txt" sweep

# Three shard workers over one cache dir. The short TTL keeps the
# post-kill reclaim (and so the whole smoke) fast; the victim gets one
# worker slot so the survivors keep most cells moving while it dies,
# and a distinctive name so its lease files can be told apart.
cache="$work/cache"
shard=(-shared -cache-dir "$cache" -lease-ttl 2s)
victim=chaos-victim-w3
"$bin" "${args[@]}" "${shard[@]}" -worker-id w1 -out "$work/w1.txt" sweep 2> "$work/w1.log" &
pid1=$!
"$bin" "${args[@]}" "${shard[@]}" -worker-id w2 -out "$work/w2.txt" sweep 2> "$work/w2.log" &
pid2=$!
"$bin" "${args[@]}" "${shard[@]}" -worker-id "$victim" -workers 1 -out "$work/w3.txt" sweep 2> "$work/w3.log" &
pid3=$!

# kill -9 the victim while it holds a lease: no signal handler, no
# cleanup, exactly a crashed host. A kill between two leases would
# orphan nothing and the reclaim check below would pass on 0 = 0, so
# the victim is frozen (SIGSTOP) first and killed only if a lease file
# still names it; otherwise it is thawed and polled again.
holds_lease() {
  grep -rlaF --include='*.lease' "$victim" "$cache/leases" > /dev/null 2>&1
}
killed=""
for _ in $(seq 600); do
  kill -0 "$pid3" 2> /dev/null || break
  if holds_lease; then
    kill -STOP "$pid3"
    if holds_lease; then
      kill -9 "$pid3"
      killed=1
      break
    fi
    kill -CONT "$pid3"
  fi
  sleep 0.1
done
wait "$pid3" || true
if [ -z "$killed" ]; then
  echo "worker $victim was never caught holding a lease" >&2
  kill "$pid1" "$pid2" 2> /dev/null || true
  exit 1
fi
echo "killed worker $victim (pid $pid3) while it held a lease"

status=0
wait "$pid1" || status=$?
[ "$status" -eq 0 ] || { echo "worker w1 failed ($status)"; cat "$work/w1.log"; exit 1; }
wait "$pid2" || status=$?
[ "$status" -eq 0 ] || { echo "worker w2 failed ($status)"; cat "$work/w2.log"; exit 1; }

# Every survivor assembled the full grid: reports byte-identical to the
# single-process reference.
cmp <(grep -v 'completed in' "$work/ref.txt") <(grep -v 'completed in' "$work/w1.txt")
cmp <(grep -v 'completed in' "$work/ref.txt") <(grep -v 'completed in' "$work/w2.txt")
echo "chaos shard smoke: both survivors' reports are byte-identical to the reference"

# The store fscks clean after the SIGKILL: torn lease files quarantined
# or absent, orphaned temp files swept, every cell intact.
"$bin" run -cache-verify -cache-dir "$cache"

# Reclaim accounting: the survivors' stderr counters must agree with
# the on-disk audit trail — every reclaimed cell counted exactly once,
# which is once per tokened reclaim marker.
grep -h 'leases:' "$work/w1.log" "$work/w2.log" || true
markers=$(find "$cache/leases" -name '*.reclaimed-*' 2>/dev/null | wc -l)
counted=$(grep -ho '[0-9]* reclaimed' "$work/w1.log" "$work/w2.log" \
  | awk '{sum += $1} END {print sum+0}')
echo "reclaim markers on disk: $markers; reclaims counted by survivors: $counted"
if [ "$markers" -ne "$counted" ]; then
  echo "reclaim accounting mismatch: $counted counted, $markers markers" >&2
  exit 1
fi
if [ "$counted" -lt 1 ]; then
  echo "no reclaim counted: the victim's orphaned lease was never taken" >&2
  exit 1
fi
# No live lease may survive a completed grid.
leftover=$(find "$cache/leases" -name '*.lease' 2>/dev/null | wc -l)
if [ "$leftover" -ne 0 ]; then
  echo "leases left behind after completion:" >&2
  find "$cache/leases" -name '*.lease' >&2
  exit 1
fi
echo "chaos shard smoke: fsck clean, reclaims counted exactly once"
