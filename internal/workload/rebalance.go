package workload

import (
	"fmt"
	"sync"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/faults"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// RebalanceConfig parameterizes the elastic-membership experiment: clients
// stream synchronous block writes while a brand-new storage node joins
// mid-run and the cluster rebalances every existing file onto the widened
// stripe in the background.
type RebalanceConfig struct {
	Block    int64         // per-write block size (default 2 MB)
	DataSize int64         // per-client corpus written before the join (default 16 MB)
	JoinAt   time.Duration // when the new node joins, relative to run start
	Node     string        // name of the joining node (default "io6")
	Tail     time.Duration // steady-state window measured after migration ends
	Max      time.Duration // hard deadline in case the join never lands
}

// RebalanceResult is per-phase aggregate foreground throughput.  The phase
// boundaries are the actual migration window reported by the cluster, not
// the scheduled join time, so During measures foreground service while the
// background copier is genuinely running.
type RebalanceResult struct {
	Before float64 // MB/s before migration starts
	During float64 // MB/s while the migration is in flight
	After  float64 // MB/s after migration completes (the widened stripe)
}

// Rebalance runs the experiment.  It requires the simulated transport, both
// for membership (the reconciler drives the simulated fabric) and because
// the phase windows are virtual-time intervals — which also makes the result
// exactly reproducible for a given seed.
//
// A setup run first writes each client's migration corpus, so the join has
// real data to move.  Then the join is scheduled and every client streams
// Block-sized fsync'd foreground writes until the migration has been over
// for Tail; chunk completion times bucket the bytes into the three phases.
func Rebalance(cl *cluster.Cluster, cfg RebalanceConfig) (RebalanceResult, error) {
	if cl.Cfg.Transport == cluster.TransportTCP {
		return RebalanceResult{}, fmt.Errorf("workload: the rebalance experiment requires the sim transport")
	}
	if cfg.Block <= 0 {
		cfg.Block = 2 << 20
	}
	if cfg.DataSize <= 0 {
		cfg.DataSize = 16 << 20
	}
	if cfg.JoinAt <= 0 {
		cfg.JoinAt = 2 * time.Second
	}
	if cfg.Node == "" {
		cfg.Node = "io6"
	}
	if cfg.Tail <= 0 {
		cfg.Tail = 3 * time.Second
	}
	if cfg.Max <= 0 {
		cfg.Max = cfg.JoinAt + cfg.Tail + 120*time.Second
	}

	// Setup run: the corpus the reconciler will migrate.  This runs before
	// the join is scheduled, so it is placed on the original stripe.
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/rebalance.%d", i))
		if err != nil {
			return err
		}
		for off := int64(0); off < cfg.DataSize; off += cfg.Block {
			n := cfg.DataSize - off
			if n > cfg.Block {
				n = cfg.Block
			}
			if err := m.Write(ctx, f, off, payload.Synthetic(n)); err != nil {
				return err
			}
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		return RebalanceResult{}, fmt.Errorf("rebalance setup: %w", err)
	}

	if err := cl.Schedule(faults.NewPlan(1, faults.Join{At: cfg.JoinAt, Node: cfg.Node})); err != nil {
		return RebalanceResult{}, err
	}

	// Measured run: foreground writers stream into fresh files while the
	// reconciler joins the node and migrates the corpus underneath them.
	type sample struct {
		at    time.Duration // absolute virtual completion time
		bytes int64
	}
	var mu sync.Mutex
	var samples []sample
	start := cl.Now()
	elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/fg.%d", i))
		if err != nil {
			return err
		}
		var off int64
		for {
			at := time.Duration(ctx.Now()) - start
			if at >= cfg.Max {
				break
			}
			if _, end := cl.MigrationWindow(); end > start && at >= end-start+cfg.Tail {
				break
			}
			if err := m.Write(ctx, f, off, payload.Synthetic(cfg.Block)); err != nil {
				return err
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
			mu.Lock()
			samples = append(samples, sample{at: time.Duration(ctx.Now()), bytes: cfg.Block})
			mu.Unlock()
			off += cfg.Block
		}
		return m.Close(ctx, f)
	})
	if err != nil {
		return RebalanceResult{}, fmt.Errorf("rebalance run: %w", err)
	}
	migStart, migEnd := cl.MigrationWindow()
	if migEnd <= start {
		return RebalanceResult{}, fmt.Errorf("rebalance: the migration never ran (deadline %v hit)", cfg.Max)
	}
	var window [3]int64
	for _, s := range samples {
		w := 0
		switch {
		case s.at >= migEnd:
			w = 2
		case s.at >= migStart:
			w = 1
		}
		window[w] += s.bytes
	}
	mbs := func(bytes int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(bytes) / 1e6 / d.Seconds()
	}
	return RebalanceResult{
		Before: mbs(window[0], migStart-start),
		During: mbs(window[1], migEnd-migStart),
		After:  mbs(window[2], start+elapsed-migEnd),
	}, nil
}
