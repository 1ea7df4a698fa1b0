package bench

import (
	"fmt"

	"dpnfs/internal/cluster"
	"dpnfs/internal/faults"
	"dpnfs/internal/workload"
)

// Tail-figure schedule: the victim node is degraded — not crashed — for the
// whole degraded phase, so every request still succeeds but a seed-driven
// fraction of them straggle.  The lossy link is what hedged duplicates beat:
// each message through the victim pays the 200 ms retransmission timeout
// with probability tailLoss on an independent per-message coin flip, so a
// duplicate request usually completes at normal speed while its primary
// sits out the RTO.  The slowed disk adds a deterministic mid-range stratum
// (reads striped to the victim) between the healthy base and the RTO tail.
// tailSlowFactor is deliberately modest: the victim's platter must straggle
// visibly (a mid-range latency stratum) while its worst closed-loop queue —
// every client's primary plus a hedged duplicate — stays below the
// histogram's RTO bucket, so the 500 ms bucket isolates retransmission
// events and the hedged-vs-unhedged comparison cannot be inverted by
// duplicate-induced disk queueing.
const (
	tailVictim     = "io1" // a non-MDS storage node present in every arch
	tailLoss       = 0.05
	tailSlowFactor = 2
)

// tailDiskCache shrinks each node's disk cache for this figure so repeated
// scans stay cold: with the 2 GB default, everything the setup phase wrote
// is still cache-resident and a slowed platter never serves a read.
const tailDiskCache = 1 << 20

// tailPercentiles are the figure's X axis: the per-mille quantile (500 =
// p50, 990 = p99, 999 = p999).
var tailPercentiles = []struct {
	x int
	q func(workload.TailPhase) float64
}{
	{500, func(p workload.TailPhase) float64 { return p.P50 }},
	{990, func(p workload.TailPhase) float64 { return p.P99 }},
	{999, func(p workload.TailPhase) float64 { return p.P999 }},
}

// Tail is the repository's tail-latency figure (not from the paper):
// per-read latency percentiles on every architecture, steady versus
// degraded (slow disk + lossy link on one storage node), with hedged
// requests off versus on (cluster.Config.IOHedge; see docs/ARCHITECTURE.md
// "Tail-latency scheduling").  X is the per-mille quantile (500/990/999); Y
// is latency in milliseconds.  The figure errors if the hedged clusters'
// degraded phases never launched a hedge, so it cannot silently degenerate
// into two unhedged runs.
func Tail(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{3}, cluster.Archs)
	fig := Figure{
		ID:     "tail",
		Title:  "read tail latency, steady vs degraded node, unhedged vs hedged",
		XLabel: "permille",
		YLabel: "latency ms",
	}
	plan := faults.NewPlan(1,
		faults.SlowDisk{At: 0, Node: tailVictim, Factor: tailSlowFactor},
		faults.LinkDegrade{At: 0, Node: tailVictim, Loss: tailLoss},
	)
	n := opt.Clients[0]
	fileSize := scaleBytes(64<<20, opt.Scale)
	for _, arch := range opt.Archs {
		for _, mode := range []struct {
			label string
			hedge bool
		}{{"unhedged", false}, {"hedged", true}} {
			cl := newCluster(opt, cluster.Config{
				Arch: arch, Clients: n,
				StripeSize: workload.TailBlock, WSize: workload.TailBlock, RSize: workload.TailBlock,
				DiskCacheBytes: tailDiskCache,
				IOHedge:        mode.hedge,
			})
			res, err := workload.Tail(cl, workload.TailConfig{FileSize: fileSize}, plan)
			cl.Close()
			if err != nil {
				return fig, fmt.Errorf("tail/%s/%s: %w", arch, mode.label, err)
			}
			if mode.hedge && res.Degraded.Hedges < 1 {
				return fig, fmt.Errorf("tail/%s: degraded phase launched no hedges — hedging never engaged", arch)
			}
			for _, ph := range []struct {
				label string
				phase workload.TailPhase
			}{{"steady", res.Steady}, {"degraded", res.Degraded}} {
				s := Series{Label: fmt.Sprintf("%s %s %s", archLabel(arch), mode.label, ph.label)}
				for _, pct := range tailPercentiles {
					s.Points = append(s.Points, Point{X: pct.x, Y: pct.q(ph.phase) * 1e3})
				}
				fig.Series = append(fig.Series, s)
			}
		}
	}
	return fig, nil
}
