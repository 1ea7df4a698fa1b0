package workload

import (
	"fmt"
	"math/rand"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// TailConfig parameterizes the tail-latency experiment: clients issue
// synchronous block reads one at a time and every read's completion latency
// is recorded, first on a healthy cluster and then under the cluster's
// armed fault plan (a degraded storage node).  The per-request latency
// distribution — not aggregate MB/s — is the result.
type TailConfig struct {
	Block    int64 // per-read block size (default 64 KB)
	FileSize int64 // per-client file size (default 8 MB)
	// Passes repeats the full shuffled scan per phase (default 1); client
	// caches are dropped between passes so every read is an RPC.  More
	// passes give the p999 estimate more samples at small file sizes.
	Passes int
	// Seed drives the per-client shuffled read order (the simulation's own
	// randomness threads from cluster.Config.Seed; this seed only permutes
	// block order, so the experiment follows the bench determinism rule).
	Seed int64
}

// TailPhase is one phase's read-latency distribution.
type TailPhase struct {
	P50, P99, P999 float64 // seconds (histogram-bucket upper bounds)
	Reads          uint64  // latency samples recorded
	Hedges         float64 // hedged duplicates launched during the phase
}

// TailResult holds both phases.
type TailResult struct {
	Steady   TailPhase // faults disarmed
	Degraded TailPhase // fault plan armed (degraded node)
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
// Setup (outside the fault schedule) writes each client a private file.
// Each phase then drops client caches and has every client read its file's
// blocks once per pass, in a per-client seeded shuffle, one synchronous
// read at a time — so each sample is an isolated request-level latency, and
// a straggling block (slow disk, lost message) surfaces directly as a tail
// sample rather than hiding inside a deep pipeline.  The steady phase runs
// with faults disarmed; the degraded phase re-arms the cluster's plan.
func Tail(cl *cluster.Cluster, cfg TailConfig) (TailResult, error) {
	if cl.Cfg.Transport == cluster.TransportTCP {
		return TailResult{}, fmt.Errorf("workload: the tail experiment requires the sim transport")
	}
	if cfg.Block <= 0 {
		cfg.Block = 64 << 10
	}
	if cfg.FileSize < cfg.Block {
		cfg.FileSize = 8 << 20
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 1
	}
	blocks := int(cfg.FileSize / cfg.Block)

	// Setup outside the fault schedule: only the degraded phase suffers it.
	cl.ArmFaults(false)
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/tail.%d", i))
		if err != nil {
			return err
		}
		for b := 0; b < blocks; b++ {
			if err := m.Write(ctx, f, int64(b)*cfg.Block, payload.Synthetic(cfg.Block)); err != nil {
				return err
			}
		}
		return m.Close(ctx, f)
	}); err != nil {
		return TailResult{}, fmt.Errorf("tail setup: %w", err)
	}

	phase := func(armed bool, phaseSeed int64) (TailPhase, error) {
		cl.ArmFaults(armed)
		hedges0 := cl.Metrics().Snapshot().Total("ioengine_hedges_launched_total")
		// A private registry holds the phase's latency histogram, so the
		// distribution never leaks into (or double-counts in) the cluster's
		// shared registry across phases.
		hist := metrics.NewRegistry().Histogram("workload_tail_read_seconds",
			"Per-read completion latency for the tail experiment.", tailBuckets())
		if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			rng := rand.New(rand.NewSource(cfg.Seed + phaseSeed*1009 + int64(i)))
			for pass := 0; pass < cfg.Passes; pass++ {
				m.DropCaches()
				f, err := m.Open(ctx, fmt.Sprintf("/tail.%d", i))
				if err != nil {
					return err
				}
				order := rng.Perm(blocks)
				for _, b := range order {
					t0 := ctx.Now()
					if _, _, err := m.Read(ctx, f, int64(b)*cfg.Block, cfg.Block); err != nil {
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

	steady, err := phase(false, 1)
	if err != nil {
		return TailResult{}, fmt.Errorf("tail steady phase: %w", err)
	}
	degraded, err := phase(true, 2)
	if err != nil {
		return TailResult{}, fmt.Errorf("tail degraded phase: %w", err)
	}
	return TailResult{Steady: steady, Degraded: degraded}, nil
}
