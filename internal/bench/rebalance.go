package bench

import (
	"fmt"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/workload"
)

// Rebalance-figure schedule: the join lands deep enough into the run for a
// clean pre-join baseline, and every client carries enough pre-written data
// that the background migration is long enough to measure foreground service
// underneath it.
const (
	rebalanceJoiner = "io6" // first name free in every architecture
	rebalanceJoinAt = 2 * time.Second

	// rebalanceBGShare caps the engine-window fraction the Background-class
	// migration copier may hold, so foreground throughput during the
	// migration has a configured floor (the CI smoke asserts against it).
	rebalanceBGShare = 0.5
)

// Rebalance is the repository's elastic-membership figure (not from the
// paper): aggregate foreground write throughput before, during, and after a
// brand-new storage node joins and the cluster migrates existing files onto
// the widened stripe through the Background I/O class.  X is the phase
// (1=before 2=during 3=after); see docs/ARCHITECTURE.md "Elastic
// membership".  The figure errors if no bytes migrated or the reconciler
// failed, so it cannot silently degenerate into a static-membership run.
func Rebalance(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{2}, cluster.Archs)
	fig := Figure{
		ID:     "rebalance",
		Title:  "foreground write under a node join + rebalance (phases: 1=before 2=during 3=after)",
		XLabel: "phase",
		YLabel: "aggregate MB/s",
	}
	n := opt.Clients[0]
	dataSize := scaleBytes(16<<20, opt.Scale)
	for _, arch := range opt.Archs {
		cl := newCluster(opt, cluster.Config{Arch: arch, Clients: n, IOBackgroundShare: rebalanceBGShare})
		res, err := workload.Rebalance(cl, workload.RebalanceConfig{
			DataSize: dataSize,
			JoinAt:   rebalanceJoinAt,
			Node:     rebalanceJoiner,
		})
		if err == nil {
			err = cl.ReconcileErr()
		}
		migrated := cl.Metrics().Snapshot().Total("rebalance_bytes_total")
		cl.Close()
		if err != nil {
			return fig, fmt.Errorf("rebalance/%s: %w", arch, err)
		}
		if migrated == 0 {
			return fig, fmt.Errorf("rebalance/%s: no bytes migrated — the join never rebalanced", arch)
		}
		fig.Series = append(fig.Series, Series{
			Label: archLabel(arch),
			Points: []Point{
				{X: 1, Y: res.Before},
				{X: 2, Y: res.During},
				{X: 3, Y: res.After},
			},
		})
	}
	return fig, nil
}
