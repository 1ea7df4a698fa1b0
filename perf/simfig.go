package main

import (
	"fmt"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/metrics"
	"dpnfs/internal/workload"
)

// sim_figures: the host speed of the discrete-event kernel and everything
// that runs on it — what every figure and most of `go test ./...` pays.
// No sockets, no real bytes; time inside the clusters is virtual.

// simPoint is one figure point of a pass: its simulated statistics, which
// must repeat bit for bit, and the host time it took.
type simPoint struct {
	Name   string  `json:"name"`
	Arch   string  `json:"arch"`
	IOR    bool    `json:"ior"`       // an IOR run, as opposed to the open-loop point
	Events uint64  `json:"events"`    // kernel events fired
	VirtNs int64   `json:"virt_ns"`   // virtual time simulated
	MBs    float64 `json:"virt_mb_s"` // simulated throughput of the measured phase
	Calls  int64   `json:"app_calls"`
	Bytes  int64   `json:"bytes"`
	// Host time, not simulated statistics: wall clock and process CPU.
	wall, cpu time.Duration
}

// simPass runs every point once.  reg, when set, is shared by all clusters
// of the pass; st, when set, wraps their stores.
func simPass(cfg runCfg, reg *metrics.Registry, st *storeStats) ([]simPoint, error) {
	sz := cfg.sz
	var pts []simPoint
	build := func(arch cluster.Arch) *cluster.Cluster {
		c := cluster.Config{Arch: arch, Clients: sz.simClients, Seed: cfg.seed, Metrics: reg}
		if st != nil {
			base, _ := cluster.BackendFactory(cluster.BackendMem)
			c.MetadataBackend = st.wrap(base)
			c.ContentBackend = st.wrap(base)
		}
		return cluster.New(c)
	}
	var cpu0 time.Duration
	start := func() time.Time {
		cpu0 = rusageCPU()
		return time.Now()
	}
	done := func(name string, ior bool, cl *cluster.Cluster, t0 time.Time, mbs float64, calls, bytes int64) {
		pts = append(pts, simPoint{
			Name: name, Arch: string(cl.Cfg.Arch), IOR: ior,
			Events: cl.K.EventsFired(), VirtNs: int64(cl.Now()),
			MBs: mbs, Calls: calls, Bytes: bytes, wall: time.Since(t0), cpu: rusageCPU() - cpu0,
		})
		cl.Close()
	}
	for _, arch := range cluster.Archs {
		for _, block := range []int64{sz.simSmall, sz.simLarge} {
			for _, read := range []bool{false, true} {
				t0 := start()
				cl := build(arch)
				res, err := workload.IOR(cl, workload.IORConfig{
					FileSize: sz.simFile, Block: block, Separate: true, Read: read,
				})
				if err != nil {
					cl.Close()
					return nil, fmt.Errorf("%s: %w", arch, err)
				}
				// A read run populates first, so it makes twice the calls.
				calls := int64(sz.simClients) * (sz.simFile / block)
				bytes := res.Bytes
				mode := "write"
				if read {
					calls, bytes, mode = 2*calls, 2*bytes, "read"
				}
				done(fmt.Sprintf("%s/ior-%s-%dk", arch, mode, block>>10), true, cl, t0, res.ThroughputMBs(), calls, bytes)
			}
		}
	}
	t0 := start()
	cl := build(cluster.ArchDirectPNFS)
	res, err := workload.OpenLoop(cl, workload.OpenLoopConfig{
		LogicalClients: sz.simLogical, Window: sz.simWindow, Seed: cfg.seed,
	})
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("open loop: %w", err)
	}
	done(fmt.Sprintf("%s/openloop-%d", cluster.ArchDirectPNFS, sz.simLogical), false, cl, t0, res.ThroughputMBs(), int64(res.Reads), res.Bytes)
	return pts, nil
}
