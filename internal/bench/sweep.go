package bench

import (
	"fmt"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/workload"
)

// Sweep-figure shape: each (arch, N) point mounts sweepMounts real clients
// and multiplexes N logical clients over them as Poisson arrival streams
// (workload.OpenLoop), so the 10k-client point costs 10k arrivals per
// second of window, not 10k mounted clients.
// sweepBlock doubles as the cluster's RSize: the NFS client rounds cold
// reads out to RSize chunks, so any smaller request would be silently
// amplified and the offered-load axis would lie.  At 256 KB the offered
// load spans ~64 MB/s (64 clients, loafing) to ~10 GB/s (10k clients, an
// order of magnitude past the backend), so the sweep crosses the knee.
const (
	sweepMounts        = 8
	sweepRatePerClient = 4.0       // reads/sec per logical client
	sweepBlock         = 256 << 10 // per-read block size == RSize
	sweepSeed          = 1807      // arrival-schedule seed (per-point offset added)
)

// sweepClients is the default logical-client axis: the 64 → 10k open-loop
// scaling sweep.
var sweepClients = []int{64, 1000, 10000}

// sweepMetrics are the per-point series each architecture contributes.
var sweepMetrics = []struct {
	name string
	y    func(workload.OpenLoopResult) float64
}{
	{"MB/s", workload.OpenLoopResult.ThroughputMBs},
	{"occupancy", func(r workload.OpenLoopResult) float64 { return r.Occupancy }},
	{"p50 ms", func(r workload.OpenLoopResult) float64 { return r.P50 * 1e3 }},
	{"p99 ms", func(r workload.OpenLoopResult) float64 { return r.P99 * 1e3 }},
	{"p999 ms", func(r workload.OpenLoopResult) float64 { return r.P999 * 1e3 }},
}

// Sweep is the repository's open-loop client-scaling figure (not from the
// paper): every architecture driven from a light 64-logical-client load to
// a saturating 10,000, recording completed throughput, mean I/O-engine
// window occupancy, and arrival-to-completion latency percentiles at each
// point.  X is the logical client count; each architecture contributes one
// series per metric.  Unlike the closed-loop figures, offered load here is
// independent of completions, so past the knee the latency percentiles
// grow with queue depth instead of throughput flattening silently.
//
// Options.Clients overrides the logical-client axis (not the mount count,
// which is fixed at sweepMounts); Options.Scale scales the per-mount file
// size and the arrival window.
func Sweep(opt Options) (Figure, error) {
	opt = opt.withDefaults(sweepClients, cluster.Archs)
	window := time.Duration(float64(2*time.Second) * opt.Scale)
	if window < 250*time.Millisecond {
		window = 250 * time.Millisecond
	}
	fig := Figure{
		ID:     "sweep",
		Title:  "open-loop client scaling, 64 → 10k logical clients",
		XLabel: "logical clients",
		YLabel: "MB/s, mean window occupancy, latency ms (per series)",
	}
	for _, arch := range opt.Archs {
		series := make([]Series, len(sweepMetrics))
		for mi, met := range sweepMetrics {
			series[mi].Label = archLabel(arch) + " " + met.name
		}
		for _, n := range opt.Clients {
			cl := newCluster(opt, cluster.Config{Arch: arch, Clients: sweepMounts, RSize: sweepBlock})
			res, err := workload.OpenLoop(cl, workload.OpenLoopConfig{
				LogicalClients: n,
				RatePerClient:  sweepRatePerClient,
				Block:          sweepBlock,
				FileSize:       scaleBytes(8<<20, opt.Scale),
				Window:         window,
				Seed:           sweepSeed + int64(n),
			})
			cl.Close()
			if err != nil {
				return Figure{}, fmt.Errorf("sweep %s n=%d: %w", arch, n, err)
			}
			if res.Reads == 0 {
				return Figure{}, fmt.Errorf("sweep %s n=%d: vacuous run, no reads completed", arch, n)
			}
			for mi, met := range sweepMetrics {
				series[mi].Points = append(series[mi].Points, Point{X: n, Y: met.y(res)})
			}
		}
		fig.Series = append(fig.Series, series...)
	}
	return fig, nil
}
