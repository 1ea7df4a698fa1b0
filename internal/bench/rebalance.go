package bench

import (
	"fmt"

	"dpnfs/internal/cluster"
	"dpnfs/internal/workload"
)

// rebalanceBGShare caps the engine-window fraction the Background-class
// migration copier may hold, so foreground throughput during the migration
// has a configured floor (the CI smoke asserts against it).
const rebalanceBGShare = 0.5

// Rebalance is the repository's elastic-membership figure (not from the
// paper): aggregate foreground write throughput before, during, and after a
// brand-new storage node joins and the cluster migrates existing files onto
// the widened stripe through the Background I/O class (workload.Rebalance).
// Every client carries enough pre-written data that the migration is long
// enough to measure foreground service underneath it.  X is the phase
// (1=before 2=during 3=after); see docs/ARCHITECTURE.md "Elastic
// membership".  The figure errors if an architecture's run migrated no
// bytes, so it cannot silently degenerate into a static-membership run.
func Rebalance(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{2}, cluster.Archs)
	dataSize := scaleBytes(16<<20, opt.Scale)
	return phaseFigure(Figure{
		ID:    "rebalance",
		Title: "foreground write under a node join + rebalance (phases: 1=before 2=during 3=after)",
	}, opt, func(cluster.Arch) cluster.Config { return cluster.Config{IOBackgroundShare: rebalanceBGShare} },
		func(cl *cluster.Cluster) (workload.Phases, error) { return workload.Rebalance(cl, dataSize) },
		func(delta func(string) float64) error {
			if delta("rebalance_bytes_total") < 1 {
				return fmt.Errorf("no bytes migrated — the join never rebalanced")
			}
			return nil
		})
}
