package workload

import (
	"fmt"
	"math/rand"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/faults"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// TailConfig parameterizes the tail-latency experiment: clients issue
// synchronous block reads one at a time and every read's completion latency
// is recorded, first on a healthy cluster and then under a fault plan that
// degrades a storage node.  The per-request latency distribution — not
// aggregate MB/s — is the result.
type TailConfig struct {
	FileSize int64 // per-client file size (default 8 MB)
}

// TailBlock is the tail experiment's read size.
const TailBlock = 64 << 10

// TailPhase is one phase's read-latency distribution.
type TailPhase struct {
	P50, P99, P999 float64 // seconds (histogram-bucket upper bounds)
	Reads          uint64  // latency samples recorded
	Hedges         float64 // hedged duplicates launched during the phase
}

// TailResult holds both phases.
type TailResult struct {
	Steady   TailPhase // no faults
	Degraded TailPhase // under the degrading plan
}

// tailBuckets resolve the latency histogram: geometric up to 150 ms, then
// one coarse bucket covering every single-retransmit completion (the
// simulated network's 200 ms RTO plus service time lands in (0.15, 0.5]
// whatever the architecture), so quantile comparisons across runs depend on
// how many requests suffered an RTO, not on sub-bucket jitter.
func tailBuckets() []float64 {
	var b []float64
	for v := 500e-6; v < 0.15; v *= 1.3 {
		b = append(b, v)
	}
	return append(b, 0.15, 0.5, 1, 2.5)
}

// Tail runs the experiment.  It requires the simulated transport: latencies
// are virtual-time intervals, which also makes the distributions exactly
// reproducible for a given (seed, plan).
//
// Setup writes each client a private file.  Each phase then drops client
// caches and has every client read its file's blocks once per pass, in a
// per-client seeded shuffle, one synchronous read at a time — so each
// sample is an isolated request-level latency, and a straggling block (slow
// disk, lost message) surfaces directly as a tail sample rather than hiding
// inside a deep pipeline.  The steady phase runs
// on a healthy cluster; degrade is scheduled for the degraded phase alone.
func Tail(cl *cluster.Cluster, cfg TailConfig, degrade *faults.Plan) (TailResult, error) {
	if cl.Cfg.Transport == cluster.TransportTCP {
		return TailResult{}, fmt.Errorf("workload: the tail experiment requires the sim transport")
	}
	if cfg.FileSize < TailBlock {
		cfg.FileSize = 8 << 20
	}
	blocks := int(cfg.FileSize / TailBlock)
	// Keep the latency sample count, and so the p999 resolution, roughly
	// size-independent: small files get more shuffled passes, with client
	// caches dropped between passes so every read is an RPC.
	passes := 1
	if blocks < 512 {
		passes = (512 + blocks - 1) / blocks
	}

	if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/tail.%d", i))
		if err != nil {
			return err
		}
		for b := 0; b < blocks; b++ {
			if err := m.Write(ctx, f, int64(b)*TailBlock, payload.Synthetic(TailBlock)); err != nil {
				return err
			}
		}
		return m.Close(ctx, f)
	}); err != nil {
		return TailResult{}, fmt.Errorf("tail setup: %w", err)
	}

	phase := func(phaseSeed int64) (TailPhase, error) {
		hedges0 := cl.Metrics().Snapshot().Total("ioengine_hedges_launched_total")
		// A private registry holds the phase's latency histogram, so the
		// distribution never leaks into (or double-counts in) the cluster's
		// shared registry across phases.
		hist := metrics.NewRegistry().Histogram("workload_tail_read_seconds",
			"Per-read completion latency for the tail experiment.", tailBuckets())
		if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			rng := rand.New(rand.NewSource(tailSeed + phaseSeed*1009 + int64(i)))
			for pass := 0; pass < passes; pass++ {
				m.DropCaches()
				f, err := m.Open(ctx, fmt.Sprintf("/tail.%d", i))
				if err != nil {
					return err
				}
				order := rng.Perm(blocks)
				for _, b := range order {
					t0 := ctx.Now()
					if _, _, err := m.Read(ctx, f, int64(b)*TailBlock, TailBlock); err != nil {
						return err
					}
					hist.ObserveDuration(time.Duration(ctx.Now() - t0))
				}
				if err := m.Close(ctx, f); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return TailPhase{}, err
		}
		return TailPhase{
			P50:    hist.Quantile(0.50),
			P99:    hist.Quantile(0.99),
			P999:   hist.Quantile(0.999),
			Reads:  hist.Count(),
			Hedges: cl.Metrics().Snapshot().Total("ioengine_hedges_launched_total") - hedges0,
		}, nil
	}

	steady, err := phase(1)
	if err != nil {
		return TailResult{}, fmt.Errorf("tail steady phase: %w", err)
	}
	if err := cl.Schedule(degrade); err != nil {
		return TailResult{}, err
	}
	degraded, err := phase(2)
	if err != nil {
		return TailResult{}, fmt.Errorf("tail degraded phase: %w", err)
	}
	return TailResult{Steady: steady, Degraded: degraded}, nil
}
