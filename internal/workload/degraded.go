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

// DegradedConfig parameterizes the degraded-mode experiment: clients stream
// synchronous block writes while a storage node crashes at CrashAt and
// restarts at RestartAt, and throughput is accounted into three windows
// bounded by the same two times.  The victim is the first storage node that
// does not double as the metadata manager ("io1" on every architecture).
type DegradedConfig struct {
	Block     int64         // per-write block size (default 2 MB)
	CrashAt   time.Duration // start of the outage window
	RestartAt time.Duration // end of the outage window
	Tail      time.Duration // recovery window measured after the restart
}

// DegradedResult is per-window aggregate throughput.
type DegradedResult struct {
	Before float64 // MB/s in [0, CrashAt)
	During float64 // MB/s in [CrashAt, RestartAt)
	After  float64 // MB/s in [RestartAt, end of run)
}

// Degraded runs the experiment.  It requires the simulated transport: the
// windows are virtual-time intervals, which is also what makes the result
// exactly reproducible for a given (seed, plan).
//
// Every client writes Block-sized chunks, each followed by an fsync so a
// chunk only counts once its bytes are on stable storage, and keeps going
// until the recovery window has elapsed.  Chunk completion times bucket the
// bytes into the three windows.
func Degraded(cl *cluster.Cluster, cfg DegradedConfig) (DegradedResult, error) {
	if cl.Cfg.Transport == cluster.TransportTCP {
		return DegradedResult{}, fmt.Errorf("workload: the degraded experiment requires the sim transport")
	}
	if cfg.Block <= 0 {
		cfg.Block = 2 << 20
	}
	if cfg.CrashAt <= 0 {
		cfg.CrashAt = 2 * time.Second
	}
	if cfg.RestartAt <= cfg.CrashAt {
		cfg.RestartAt = cfg.CrashAt + 4*time.Second
	}
	if cfg.Tail <= 0 {
		cfg.Tail = 3 * time.Second
	}

	// Setup before the crash is scheduled: the measured run alone suffers it.
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/degraded.%d", i))
		if err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		return DegradedResult{}, fmt.Errorf("degraded setup: %w", err)
	}
	victims := cl.FaultCandidates()
	if len(victims) == 0 {
		return DegradedResult{}, fmt.Errorf("degraded: no storage node to crash")
	}
	if err := cl.Schedule(faults.NewPlan(1,
		faults.StorageNodeCrash{At: cfg.CrashAt, Node: victims[0]},
		faults.StorageNodeRestart{At: cfg.RestartAt, Node: victims[0]},
	)); err != nil {
		return DegradedResult{}, err
	}

	var mu sync.Mutex
	var window [3]int64 // bytes completed per window
	deadline := cfg.RestartAt + cfg.Tail
	start := cl.Now()
	elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Open(ctx, fmt.Sprintf("/degraded.%d", i))
		if err != nil {
			return err
		}
		var off int64
		for time.Duration(ctx.Now())-start < deadline {
			if err := m.Write(ctx, f, off, payload.Synthetic(cfg.Block)); err != nil {
				return err
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
			at := time.Duration(ctx.Now()) - start
			w := 0
			switch {
			case at >= cfg.RestartAt:
				w = 2
			case at >= cfg.CrashAt:
				w = 1
			}
			mu.Lock()
			window[w] += cfg.Block
			mu.Unlock()
			off += cfg.Block
		}
		return m.Close(ctx, f)
	})
	if err != nil {
		return DegradedResult{}, fmt.Errorf("degraded run: %w", err)
	}
	afterDur := elapsed - cfg.RestartAt
	if afterDur <= 0 {
		afterDur = cfg.Tail
	}
	mbs := func(bytes int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(bytes) / 1e6 / d.Seconds()
	}
	return DegradedResult{
		Before: mbs(window[0], cfg.CrashAt),
		During: mbs(window[1], cfg.RestartAt-cfg.CrashAt),
		After:  mbs(window[2], afterDur),
	}, nil
}
