package workload

import (
	"fmt"
	"math/rand"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
)

// openLoopInFlight bounds concurrent requests per mount.  An arrival that
// finds the window full queues — and that queueing time counts toward its
// latency, since open-loop latency is measured from the scheduled arrival,
// not from dispatch.
const openLoopInFlight = 64

// openLoopRate is each logical client's arrival rate in reads/sec.  Offered
// load = LogicalClients × openLoopRate × Block.
const openLoopRate = 4.0

// OpenLoopConfig parameterizes the open-loop scaling experiment: a large
// population of logical clients issues block reads on a Poisson schedule,
// multiplexed over the cluster's real mounts.  Unlike the closed-loop
// workloads (IOR, Tail), arrivals do not wait for completions — when the
// cluster saturates, requests queue and latency grows without bound, which
// is exactly the regime the 64 → 10k client sweep is after.
type OpenLoopConfig struct {
	// LogicalClients is the simulated client population (default 64).  Each
	// logical client is an independent Poisson source; per mount the
	// superposition is generated as a single merged arrival stream, so ten
	// thousand clients cost ten thousand reads per second of window, not
	// ten thousand processes.
	LogicalClients int
	Block          int64         // per-read block size (default 64 KB)
	FileSize       int64         // per-mount file size (default 8 MB)
	Window         time.Duration // arrival window in virtual time (default 2s)
	// Seed drives the arrival schedule and read offsets (the simulation's
	// own randomness threads from cluster.Config.Seed, per the bench
	// determinism rule).
	Seed int64
}

// OpenLoopResult is one open-loop run's outcome.
type OpenLoopResult struct {
	LogicalClients int
	Reads          uint64
	Bytes          int64
	Elapsed        time.Duration // virtual time, first arrival to last completion
	// P50/P99/P999 are per-read latencies in seconds, measured from each
	// request's scheduled Poisson arrival to its completion — queueing
	// delay included.
	P50, P99, P999 float64
	// Occupancy is the mean I/O-engine window depth sampled at each issue
	// during the run (from ioengine_window_occupancy): ~1 when the cluster
	// is loafing, approaching MaxFlight at saturation.
	Occupancy float64
}

// ThroughputMBs returns aggregate completed MB/s (decimal MB).
func (r OpenLoopResult) ThroughputMBs() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// openLoopBuckets extend the tail experiment's latency resolution with
// coarse seconds-scale buckets: past saturation an open-loop queue grows for
// the whole window, so latencies reach the window length rather than the
// RTO ceiling that bounds the closed-loop tail run.
func openLoopBuckets() []float64 {
	var b []float64
	for v := 500e-6; v < 0.15; v *= 1.3 {
		b = append(b, v)
	}
	return append(b, 0.15, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60)
}

// OpenLoop runs the experiment.  It requires the simulated transport:
// latencies are virtual-time intervals and arrival schedules are seeded, so
// a run is exactly reproducible.
//
// Setup (unmeasured) writes each mount a private file.  The measured phase
// then runs one dispatcher process per mount: it walks a seeded Poisson
// arrival schedule with SleepUntilTime, and at each arrival spawns a flow
// that acquires an in-flight slot, opens the file, reads one random aligned
// block, closes, and records completion − scheduled arrival as the sample's
// latency — each arrival acts as a distinct logical client, metadata round
// trips included.  The dispatcher drops the mount's cache every time the
// arrival count wraps the file's block count, modelling a working set far
// larger than client cache.  The phase ends when every spawned flow has
// completed.
func OpenLoop(cl *cluster.Cluster, cfg OpenLoopConfig) (OpenLoopResult, error) {
	if cl.Cfg.Transport == cluster.TransportTCP {
		return OpenLoopResult{}, fmt.Errorf("workload: the open-loop experiment requires the sim transport")
	}
	if cfg.LogicalClients <= 0 {
		cfg.LogicalClients = 64
	}
	if cfg.Block <= 0 {
		cfg.Block = 64 << 10
	}
	if cfg.FileSize < cfg.Block {
		cfg.FileSize = 8 << 20
	}
	if cfg.Window <= 0 {
		cfg.Window = 2 * time.Second
	}
	blocks := int(cfg.FileSize / cfg.Block)
	mounts := len(cl.Mounts())

	// Setup: a private file per mount, outside the measured window.
	if _, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		f, err := m.Create(ctx, fmt.Sprintf("/openloop.%d", i))
		if err != nil {
			return err
		}
		for b := 0; b < blocks; b++ {
			if err := m.Write(ctx, f, int64(b)*cfg.Block, payload.Synthetic(cfg.Block)); err != nil {
				return err
			}
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		return m.Close(ctx, f)
	}); err != nil {
		return OpenLoopResult{}, fmt.Errorf("openloop setup: %w", err)
	}

	// Private registry for the latency distribution (never pollutes the
	// cluster's shared registry across sweep points); occupancy comes from
	// the shared registry as a before/after delta for the same reason.
	hist := metrics.NewRegistry().Histogram("workload_openloop_read_seconds",
		"Arrival-to-completion latency for the open-loop experiment.", openLoopBuckets())
	occSum0, occCnt0 := cl.Metrics().Snapshot().HistTotal("ioengine_window_occupancy")

	res := OpenLoopResult{LogicalClients: cfg.LogicalClients}
	elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		// Mount i carries share logical clients (the remainder spread over
		// the first LogicalClients % mounts); their superposed arrivals
		// form one Poisson stream of rate share × openLoopRate.
		share := cfg.LogicalClients / mounts
		if i < cfg.LogicalClients%mounts {
			share++
		}
		if share == 0 {
			return nil
		}
		rate := float64(share) * openLoopRate
		path := fmt.Sprintf("/openloop.%d", i)
		m.DropCaches()

		k := ctx.P.Kernel()
		flowName := fmt.Sprintf("%s/openloop", m.Node().Name)
		slots := sim.NewSemaphore(flowName, openLoopInFlight)
		var wg sim.WaitGroup
		var flowErr error

		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		start := ctx.P.Now()
		end := start + sim.Time(cfg.Window)
		for at, arrivals := start, 0; ; arrivals++ {
			at += sim.Time(rng.ExpFloat64() / rate * 1e9)
			if at >= end {
				break
			}
			// Once the arrivals could have touched the whole file, drop the
			// client cache: the population models a working set far larger
			// than any one mount's cache, so reads must stay cold.  Flows
			// mid-read are unaffected — their open files pin the old cache
			// generation until they release it.
			if arrivals%blocks == 0 {
				m.DropCaches()
			}
			// Draw the offset in the dispatcher, not the flow: flow
			// wake-up order must not influence the RNG stream.
			off := int64(rng.Intn(blocks)) * cfg.Block
			arrival := at
			ctx.P.SleepUntilTime(arrival)
			wg.Add(1)
			// Queueing for a slot is part of the open-loop latency, as is
			// the open/close each logical client pays around its read.
			k.GoAcquire(slots, 1, flowName, func(p *sim.Proc) {
				defer wg.Done()
				defer slots.Release(1)
				fctx := &rpc.Ctx{P: p}
				f, err := m.Open(fctx, path)
				if err != nil {
					if flowErr == nil {
						flowErr = err
					}
					return
				}
				pl, got, err := m.Read(fctx, f, off, cfg.Block)
				if err == nil {
					pl.Release()
					err = m.Close(fctx, f)
				} else {
					m.Close(fctx, f)
				}
				if err != nil {
					if flowErr == nil {
						flowErr = err
					}
					return
				}
				res.Reads++
				res.Bytes += got
				hist.ObserveDuration(time.Duration(p.Now() - arrival))
			})
		}
		wg.Wait(ctx.P)
		return flowErr
	})
	if err != nil {
		return OpenLoopResult{}, fmt.Errorf("openloop run: %w", err)
	}

	res.Elapsed = elapsed
	res.P50 = hist.Quantile(0.50)
	res.P99 = hist.Quantile(0.99)
	res.P999 = hist.Quantile(0.999)
	if occSum1, occCnt1 := cl.Metrics().Snapshot().HistTotal("ioengine_window_occupancy"); occCnt1 > occCnt0 {
		res.Occupancy = (occSum1 - occSum0) / float64(occCnt1-occCnt0)
	}
	return res, nil
}
