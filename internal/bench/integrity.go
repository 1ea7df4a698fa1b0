package bench

import (
	"fmt"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/faults"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/workload"
)

// Integrity is the repository's end-to-end data-integrity figure (not from
// the paper): aggregate verified read throughput before bit rot lands,
// while foreground reads detect and repair it from replicas, and with the
// background scrubber running (workload.Integrity) — per architecture, under
// one shared fault plan, on a replicated (Copies=2) cluster with block
// checksums and wire checksums on.  The rot hits only the primary replica
// group (devices 0..inner-1), so every corrupt chunk keeps a live good copy
// to repair from.  X is the phase (1=clean 2=rot+read-repair 3=scrub
// running); see docs/FAULTS.md "Corruption".  The workload verifies every
// byte it reads, and the figure errors if an architecture's run injected no
// corruption, engaged no read-repair, or scrubbed nothing — so it cannot
// silently degenerate into a clean read sweep.
func Integrity(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{2}, cluster.Archs)
	fileSize := scaleBytes(8<<20, opt.Scale)
	return phaseFigure(Figure{
		ID:    "integrity",
		Title: "verified reads under bit rot + scrub (phases: 1=clean 2=rot+read-repair 3=scrub)",
	}, opt, func(arch cluster.Arch) cluster.Config {
		backends := 6
		if arch == cluster.ArchPNFS3Tier {
			// 3-tier halves its backends into storage nodes; eight keeps
			// the copy count dividing the storage-node count.
			backends = 8
		}
		return cluster.Config{
			Backends: backends, Real: true,
			StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
			Aggregation:   pnfs.AggReplicated,
			AggParams:     []int64{2, 64 << 10},
			WireChecksums: true,
		}
	}, func(cl *cluster.Cluster) (workload.Phases, error) {
		inner := 3
		if cl.Cfg.Arch == cluster.ArchPNFS3Tier {
			inner = 2
		}
		var events []faults.Event
		for d := 0; d < inner; d++ {
			events = append(events, faults.BitRot{
				At:   workload.RotAt + time.Duration(d)*time.Millisecond,
				Node: fmt.Sprintf("io%d", d),
				Seed: int64(500 + d),
			})
		}
		return workload.Integrity(cl, fileSize, faults.NewPlan(1, events...))
	}, func(delta func(string) float64) error {
		switch {
		case delta("faults_injected_total") < 1:
			return fmt.Errorf("no corruption injected — the rot never landed")
		case delta("nfs_client_read_repairs_total")+delta("pvfs_client_read_repairs_total") < 1:
			return fmt.Errorf("no read-repair engaged — the rot was never detected")
		case delta("scrub_extents_total") < 1:
			return fmt.Errorf("the background scrub never scanned an extent")
		}
		return nil
	})
}
