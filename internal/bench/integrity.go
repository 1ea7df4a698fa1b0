package bench

import (
	"fmt"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/faults"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/workload"
)

// Integrity-figure schedule: the rot lands deep enough into the run for a
// clean baseline window, the scheduled scrub starts a window later so
// foreground read-repair is measured on its own, and the rot hits only the
// primary replica group (devices 0..inner-1) so every corrupt chunk keeps a
// live good copy to repair from.
const (
	integrityRotAt    = 200 * time.Millisecond
	integrityScrubAt  = 400 * time.Millisecond
	integrityDeadline = 600 * time.Millisecond

	// integrityScrubRate bounds the Background-class scrubber's verified
	// bytes per virtual second, so the phase-3 foreground impact is a
	// configured trade-off rather than an unthrottled scan.
	integrityScrubRate = 64 << 20
)

// Integrity is the repository's end-to-end data-integrity figure (not from
// the paper): aggregate verified read throughput before bit rot lands,
// while foreground reads detect and repair it from replicas, and with the
// background scrubber running — per architecture, under one shared fault
// plan, on a replicated (Copies=2) cluster with block checksums and wire
// checksums on.  X is the phase (1=clean 2=rot+read-repair 3=scrub
// running); see docs/FAULTS.md "Corruption".  The workload verifies every
// byte it reads, and the figure errors if no corruption was injected, no
// read-repair engaged, or the scrub never scanned — so it cannot silently
// degenerate into a clean read sweep.
func Integrity(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{2}, cluster.Archs)
	fig := Figure{
		ID:     "integrity",
		Title:  "verified reads under bit rot + scrub (phases: 1=clean 2=rot+read-repair 3=scrub)",
		XLabel: "phase",
		YLabel: "aggregate MB/s",
	}
	n := opt.Clients[0]
	fileSize := scaleBytes(8<<20, opt.Scale)
	for _, arch := range opt.Archs {
		backends, inner := 6, 3
		if arch == cluster.ArchPNFS3Tier {
			// 3-tier halves its backends into storage nodes; eight keeps
			// the copy count dividing the storage-node count.
			backends, inner = 8, 2
		}
		var events []faults.Event
		for d := 0; d < inner; d++ {
			events = append(events, faults.BitRot{
				At:   integrityRotAt + time.Duration(d)*time.Millisecond,
				Node: fmt.Sprintf("io%d", d),
				Seed: int64(500 + d),
			})
		}
		// The registry may be shared across the whole sweep (Options.Metrics),
		// so each arch's guards work on deltas, not absolute totals.
		pre := integrityCounters(opt, nil)
		cl := newCluster(opt, cluster.Config{
			Arch: arch, Clients: n, Backends: backends, Real: true,
			StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10,
			Aggregation:   pnfs.AggReplicated,
			AggParams:     []int64{2, 64 << 10},
			WireChecksums: true,
			ScrubRateBPS:  integrityScrubRate,
		})
		res, err := workload.Integrity(cl, workload.IntegrityConfig{
			FileSize: fileSize,
			RotAt:    integrityRotAt,
			ScrubAt:  integrityScrubAt,
			Deadline: integrityDeadline,
		}, faults.NewPlan(1, events...))
		post := integrityCounters(opt, cl)
		cl.Close()
		if err != nil {
			return fig, fmt.Errorf("integrity/%s: %w", arch, err)
		}
		if post.injected-pre.injected < 1 {
			return fig, fmt.Errorf("integrity/%s: no corruption injected — the rot never landed", arch)
		}
		if post.repairs-pre.repairs < 1 {
			return fig, fmt.Errorf("integrity/%s: no read-repair engaged — the rot was never detected", arch)
		}
		if post.scanned-pre.scanned < 1 {
			return fig, fmt.Errorf("integrity/%s: the background scrub never scanned an extent", arch)
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

// integrityGuards is the per-arch guard snapshot for the integrity figure.
type integrityGuards struct {
	injected, repairs, scanned float64
}

// integrityCounters reads the guard counters from the sweep registry (before
// a point's cluster exists) or from the cluster's own registry (after).
func integrityCounters(opt Options, cl *cluster.Cluster) integrityGuards {
	reg := opt.Metrics
	if cl != nil {
		reg = cl.Metrics()
	}
	if reg == nil {
		return integrityGuards{}
	}
	snap := reg.Snapshot()
	return integrityGuards{
		injected: snap.Total("faults_injected_total"),
		repairs: snap.Total("nfs_client_read_repairs_total") +
			snap.Total("pvfs_client_read_repairs_total"),
		scanned: snap.Total("scrub_extents_total"),
	}
}
