#!/usr/bin/env bash
# Figure smokes: run every figure CI checks end to end — each with the small
# options CI has always used — write their JSON reports (figure series plus
# the metric snapshot) into one directory, and assert on each report what
# makes that figure non-vacuous.
#
#   scripts/figsmoke.sh [outdir]      # outdir defaults to BENCH_figures/
#
# CI's `figures` job runs this and uploads outdir as its one artifact; it
# takes seconds locally.  Needs go and python3.  Exits non-zero on
# the first figure that fails to run, or with the first assertion that fails.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
out=${1:-$root/BENCH_figures}
mkdir -p "$out"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$root" && go build -o "$tmp/dpnfs-bench" ./cmd/dpnfs-bench)

# fig <report name> <dpnfs-bench options...>
fig() {
	local name=$1
	shift
	echo "== $name: dpnfs-bench $*"
	"$tmp/dpnfs-bench" "$@" -report "$out/$name.json"
}

fig BENCH_6a -fig 6a -scale 0.01 -clients 1,2
fig BENCH_degraded -fig degraded -clients 1
fig BENCH_PR4 -fig window -scale 0.05 -clients 2
fig BENCH_PR6 -fig recovery -clients 1
fig BENCH_PR7 -fig tail -scale 0.05
fig BENCH_PR8 -fig rebalance -scale 0.05 -clients 2
fig BENCH_PR9 -fig sweep -scale 0.05 -clients 16,256
fig BENCH_PR9_rerun -fig sweep -scale 0.05 -clients 16,256
fig BENCH_PR10 -fig integrity -scale 0.05 -clients 2

python3 - "$out" <<'PY'
import json, sys

out = sys.argv[1]

def figure(name):
    return json.load(open(f'{out}/{name}.json'))['figures'][0]

def total(fig, metric):
    """Sum of a counter family over all its series in the figure's snapshot."""
    return sum(s.get('value', 0)
               for m in fig['metrics']['metrics'] if m['name'] == metric
               for s in m['series'])

def points(fig):
    return {s['Label']: {p['X']: p['Y'] for p in s['Points']} for s in fig['Series']}

# 6a: the report carries the figure and a metric snapshot.  (The degraded
# figure only has to run its fault plan end to end.)
assert figure('BENCH_6a')['metrics']['metrics'], '6a: empty metrics snapshot'

# Window sweep: throughput must not fall as the engine window widens.
fig = figure('BENCH_PR4')
assert fig['metrics']['metrics'], 'window: empty metrics snapshot'
series = points(fig)
win = [y for _, y in sorted(series['PVFS2 window'].items())]
assert all(a <= b for a, b in zip(win, win[1:])), f'throughput fell as the window widened: {series}'

# Recovery: the crash must replay the journal, and service must come back.
fig = figure('BENCH_PR6')
assert total(fig, 'store_wal_replays_total') > 0, 'no WAL records replayed'
for label, pts in points(fig).items():
    assert pts[3] >= pts[1] / 2, f'no recovery after replay: {label} {pts}'

# Tail: hedging engages, on virtual timers only, and does not worsen p999.
fig = figure('BENCH_PR7')
assert total(fig, 'ioengine_hedges_launched_total') >= 1, 'no hedges launched — hedging never engaged'
wall = total(fig, 'ioengine_wallclock_timers_total')
assert wall == 0, f'{wall} wall-clock timers on the fabric transport'
series = points(fig)
for label, pts in series.items():
    if label.endswith('unhedged degraded'):
        hedged = series[label.replace('unhedged', 'hedged')]
        assert hedged[999] <= pts[999], f'hedged p999 worse on {label}: {hedged[999]} > {pts[999]}'

# Rebalance: the join migrates bytes, pays off, and keeps a foreground floor.
fig = figure('BENCH_PR8')
assert total(fig, 'rebalance_bytes_total') >= 1, 'no bytes migrated — the join never rebalanced'
for label, pts in points(fig).items():
    # The join must pay off: post-join steady state at or above the
    # pre-join baseline on every architecture.
    assert pts[3] >= pts[1], f'post-join below pre-join baseline: {label} {pts}'
    # Foreground floor: the Background-class copier is capped at
    # BackgroundShare=0.5 of the engine window, so foreground throughput
    # during migration keeps at least that share.
    assert pts[2] >= 0.5 * pts[1], f'foreground collapsed during migration: {label} {pts}'

# Open-loop sweep: seed-replay determinism — two runs with the same options
# must produce identical series (virtual-time latencies, seeded Poisson
# arrivals — no wall clock on the simulated path) — and non-vacuous points.
a, b = figure('BENCH_PR9'), figure('BENCH_PR9_rerun')
assert a['Series'] == b['Series'], 'sweep figure not deterministic across reruns'
series = points(a)
for label, pts in series.items():
    assert len(pts) == 2, f'{label}: expected one point per client count, got {pts}'
    assert all(y > 0 for y in pts.values()), f'{label}: vacuous point in {pts}'
# Occupancy must not fall as offered load grows 16x.
for label in [l for l in series if l.endswith('occupancy')]:
    pts = series[label]
    assert pts[256] >= pts[16], f'{label}: occupancy fell under load: {pts}'

# Integrity: corruption is injected, detected, repaired and scrubbed.
fig = figure('BENCH_PR10')
assert total(fig, 'faults_injected_total') >= 1, 'no corruption injected'
repairs = total(fig, 'nfs_client_read_repairs_total') + total(fig, 'pvfs_client_read_repairs_total')
assert repairs >= 1, 'no read-repair engaged'
detected = total(fig, 'nfs_client_corrupt_reads_total') + total(fig, 'pvfs_client_corrupt_reads_total')
assert detected >= repairs, 'more repairs than detections'
assert total(fig, 'scrub_extents_total') >= 1, 'the background scrub never scanned'
# The workload fails the whole figure on any mismatched byte, so a report
# that exists at all means zero corrupt bytes were delivered (no silent
# propagation); the phase columns must be non-vacuous.
for label, pts in points(fig).items():
    assert all(y > 0 for y in pts.values()), f'vacuous phase: {label} {pts}'

print(f'figsmoke: all figure reports in {out} pass their checks')
PY
