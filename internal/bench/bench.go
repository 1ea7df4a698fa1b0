// Package bench regenerates every figure in the paper's evaluation
// (Figures 6, 7, and 8, plus the §6.4.3 SSH-build study) and the
// repository's own degraded-mode figure (a storage-node crash mid-run,
// docs/FAULTS.md).  Each figure function builds fresh clusters per
// (architecture, client-count) point, runs the corresponding workload, and
// returns a Figure whose series can be printed as the table the paper
// plots.
//
// # Determinism
//
// Two runs of the same figure with the same Options (and, for the degraded
// figure, the same fault plan) produce identical Figure values.  The rule
// that guarantees it — pinned by TestFigureDeterminism — is that every
// source of randomness on the simulated path threads from an explicit
// seed: cluster.Config.Seed feeds the simulation kernel (whose RNG also
// drives injected link loss), faults plans are pure functions of their own
// seed, and no wall-clock or global-RNG value may enter a simulated run.
// New figure code must follow the same rule: derive any randomness from
// the cluster seed or a plan seed, never from time.Now or package rand
// globals.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/faults"
	"dpnfs/internal/metrics"
	"dpnfs/internal/simnet"
	"dpnfs/internal/workload"
)

// Point is one (clients, value) sample.
type Point struct {
	X int
	Y float64
}

// Series is one line on a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Options tunes figure regeneration.
type Options struct {
	// Scale multiplies data-set sizes and transaction counts (1.0 = the
	// paper's sizes).  Benchmarks and tests use smaller scales; shapes are
	// scale-stable because the bottlenecks are rate-based.
	Scale float64
	// Clients overrides the client counts swept.
	Clients []int
	// Archs restricts the architecture set.
	Archs []cluster.Arch
	// Transport selects the cluster wiring: the simulated fabric (default,
	// virtual time — the paper's numbers) or real loopback TCP (wall-clock
	// time; results measure this host, not the paper's testbed).
	Transport cluster.TransportKind
	// Metrics, when set, is shared by every cluster a figure run builds, so
	// the registry accumulates the whole sweep (all architectures, all
	// client counts) and its snapshot lands in the JSON report.  Nil gives
	// each figure point its own discarded registry.
	Metrics *metrics.Registry
}

// newCluster builds one figure point's cluster with the options' transport.
func newCluster(opt Options, cfg cluster.Config) *cluster.Cluster {
	cfg.Transport = opt.Transport
	cfg.Metrics = opt.Metrics
	if opt.Transport == cluster.TransportTCP {
		// Wall-clock runs move real bytes end to end.
		cfg.Real = true
	}
	return cluster.New(cfg)
}

func (o Options) withDefaults(clients []int, archs []cluster.Arch) Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if len(o.Clients) == 0 {
		o.Clients = clients
	}
	if len(o.Archs) == 0 {
		o.Archs = archs
	}
	return o
}

func scaleBytes(b int64, s float64) int64 {
	v := int64(float64(b) * s)
	if v < 1<<20 {
		v = 1 << 20
	}
	return v
}

// archLabel renders the paper's series names.
func archLabel(a cluster.Arch) string {
	switch a {
	case cluster.ArchDirectPNFS:
		return "Direct-pNFS"
	case cluster.ArchPVFS2:
		return "PVFS2"
	case cluster.ArchPNFS2Tier:
		return "pNFS-2tier"
	case cluster.ArchPNFS3Tier:
		return "pNFS-3tier"
	case cluster.ArchNFSv4:
		return "NFSv4"
	}
	return string(a)
}

// String renders the figure as an aligned table, one row per client count.
func (f Figure) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s (%s)\n", f.ID, f.Title, f.YLabel)
	xs := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	var xList []int
	for x := range xs {
		xList = append(xList, x)
	}
	sort.Ints(xList)
	fmt.Fprintf(&sb, "%-9s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%14s", s.Label)
	}
	sb.WriteByte('\n')
	for _, x := range xList {
		fmt.Fprintf(&sb, "%-9d", x)
		for _, s := range f.Series {
			v := ""
			for _, p := range s.Points {
				if p.X == x {
					v = fmt.Sprintf("%.1f", p.Y)
					break
				}
			}
			fmt.Fprintf(&sb, "%14s", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Value returns the Y value for (label, x), or -1 if absent.
func (f Figure) Value(label string, x int) float64 {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.X == x {
				return p.Y
			}
		}
	}
	return -1
}

// sweep fills fig with one series per architecture and one point per client
// count.  Each point builds a fresh cluster from cfg (Arch and Clients are
// set here), runs measure on it for the point's Y value, and closes it; the
// first error ends the sweep.
func sweep(fig Figure, opt Options, cfg cluster.Config, measure func(*cluster.Cluster) (float64, error)) (Figure, error) {
	for _, arch := range opt.Archs {
		s := Series{Label: archLabel(arch)}
		for _, n := range opt.Clients {
			cfg.Arch, cfg.Clients = arch, n
			cl := newCluster(opt, cfg)
			y, err := measure(cl)
			cl.Close()
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: n, Y: y})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// iorFigure sweeps client counts × architectures for one IOR setting.
func iorFigure(id, title string, opt Options, netBPS float64, ior workload.IORConfig, archs []cluster.Arch) (Figure, error) {
	opt = opt.withDefaults([]int{1, 2, 3, 4, 5, 6, 7, 8}, archs)
	fig := Figure{ID: id, Title: title, XLabel: "clients", YLabel: "aggregate MB/s"}
	ior.FileSize = scaleBytes(500<<20, opt.Scale)
	return sweep(fig, opt, cluster.Config{NetBPS: netBPS}, func(cl *cluster.Cluster) (float64, error) {
		res, err := workload.IOR(cl, ior)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/%d clients: %w", id, cl.Cfg.Arch, cl.Cfg.Clients, err)
		}
		return res.ThroughputMBs(), nil
	})
}

// Fig6a: aggregate write throughput, separate files, large block.
func Fig6a(opt Options) (Figure, error) {
	return iorFigure("Fig6a", "write, separate files, 2 MB block", opt, 0,
		workload.IORConfig{Block: 2 << 20, Separate: true}, cluster.Archs)
}

// Fig6b: aggregate write throughput, single file, large block.
func Fig6b(opt Options) (Figure, error) {
	return iorFigure("Fig6b", "write, single file, 2 MB block", opt, 0,
		workload.IORConfig{Block: 2 << 20}, cluster.Archs)
}

// Fig6c: write, separate files, 100 Mbps Ethernet (three systems).
func Fig6c(opt Options) (Figure, error) {
	return iorFigure("Fig6c", "write, separate files, 100 Mbps", opt, simnet.FastEther,
		workload.IORConfig{Block: 2 << 20, Separate: true},
		[]cluster.Arch{cluster.ArchDirectPNFS, cluster.ArchPVFS2, cluster.ArchPNFS2Tier})
}

// Fig6d: write, separate files, 8 KB block.
func Fig6d(opt Options) (Figure, error) {
	return iorFigure("Fig6d", "write, separate files, 8 KB block", opt, 0,
		workload.IORConfig{Block: 8 << 10, Separate: true}, cluster.Archs)
}

// Fig6e: write, single file, 8 KB block.
func Fig6e(opt Options) (Figure, error) {
	return iorFigure("Fig6e", "write, single file, 8 KB block", opt, 0,
		workload.IORConfig{Block: 8 << 10}, cluster.Archs)
}

// Fig7a: read (warm server cache), separate files, large block.
func Fig7a(opt Options) (Figure, error) {
	return iorFigure("Fig7a", "read, separate files, 2 MB block", opt, 0,
		workload.IORConfig{Block: 2 << 20, Separate: true, Read: true}, cluster.Archs)
}

// Fig7b: read, single file, large block.
func Fig7b(opt Options) (Figure, error) {
	return iorFigure("Fig7b", "read, single file, 2 MB block", opt, 0,
		workload.IORConfig{Block: 2 << 20, Read: true}, cluster.Archs)
}

// Fig7c: read, separate files, 8 KB block.
func Fig7c(opt Options) (Figure, error) {
	return iorFigure("Fig7c", "read, separate files, 8 KB block", opt, 0,
		workload.IORConfig{Block: 8 << 10, Separate: true, Read: true}, cluster.Archs)
}

// Fig7d: read, single file, 8 KB block.
func Fig7d(opt Options) (Figure, error) {
	return iorFigure("Fig7d", "read, single file, 8 KB block", opt, 0,
		workload.IORConfig{Block: 8 << 10, Read: true}, cluster.Archs)
}

var fig8Archs = []cluster.Arch{cluster.ArchDirectPNFS, cluster.ArchPVFS2}

// Fig8a: ATLAS Digitization write replay, 1/4/8 clients.
func Fig8a(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{1, 4, 8}, fig8Archs)
	fig := Figure{ID: "Fig8a", Title: "ATLAS digitization replay", XLabel: "clients", YLabel: "aggregate MB/s"}
	return sweep(fig, opt, cluster.Config{}, func(cl *cluster.Cluster) (float64, error) {
		res, err := workload.ATLAS(cl, workload.ATLASConfig{TotalBytes: scaleBytes(650<<20, opt.Scale)})
		return res.ThroughputMBs(), err
	})
}

// Fig8b: BTIO running time (seconds, lower is better), 1/4/9 clients.
func Fig8b(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{1, 4, 9}, fig8Archs)
	fig := Figure{ID: "Fig8b", Title: "NAS BT-IO class A", XLabel: "clients", YLabel: "time (s)"}
	return sweep(fig, opt, cluster.Config{}, func(cl *cluster.Cluster) (float64, error) {
		res, err := workload.BTIO(cl, workload.BTIOConfig{CheckpointBytes: scaleBytes(400<<20, opt.Scale)})
		return res.Elapsed.Seconds(), err
	})
}

// Fig8c: OLTP aggregate throughput, 1/4/8 clients.
func Fig8c(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{1, 4, 8}, fig8Archs)
	fig := Figure{ID: "Fig8c", Title: "OLTP 8 KB read-modify-write", XLabel: "clients", YLabel: "aggregate MB/s"}
	txns := int(20000 * opt.Scale)
	if txns < 50 {
		txns = 50
	}
	return sweep(fig, opt, cluster.Config{}, func(cl *cluster.Cluster) (float64, error) {
		res, err := workload.OLTP(cl, workload.OLTPConfig{
			Transactions: txns,
			FileBytes:    scaleBytes(512<<20, opt.Scale),
		})
		return res.ThroughputMBs(), err
	})
}

// Fig8d: Postmark transactions per second, 1/4/8 clients.  The paper runs
// this configuration with 64 KB stripe, wsize, and rsize.
func Fig8d(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{1, 4, 8}, fig8Archs)
	fig := Figure{ID: "Fig8d", Title: "Postmark", XLabel: "clients", YLabel: "transactions/s"}
	txns := int(2000 * opt.Scale)
	if txns < 25 {
		txns = 25
	}
	cfg := cluster.Config{StripeSize: 64 << 10, WSize: 64 << 10, RSize: 64 << 10}
	return sweep(fig, opt, cfg, func(cl *cluster.Cluster) (float64, error) {
		res, err := workload.Postmark(cl, workload.PostmarkConfig{Transactions: txns})
		return res.TPS(), err
	})
}

// Degraded-figure schedule: the crash window is deep enough into the run
// for a clean "before" baseline, and the outage is long enough that every
// architecture's recovery machinery (layout refetch, MDS-proxied fallback,
// striped-I/O retry) engages before the restart heals it.
const (
	degradedCrashAt   = 2 * time.Second
	degradedRestartAt = 6 * time.Second
	degradedTail      = 3 * time.Second
	degradedVictim    = "io1" // a non-MDS storage node present in every arch
)

// crashFigure runs the degraded-mode schedule — crash degradedVictim
// mid-run, restart it later — on every architecture over the given store
// backend, one series of three phase points each.  inspect, when non-nil,
// sees each cluster after its run and before it is closed.
func crashFigure(fig Figure, opt Options, backend string, inspect func(*cluster.Cluster)) (Figure, error) {
	opt = opt.withDefaults([]int{2}, cluster.Archs)
	fig.XLabel, fig.YLabel = "phase", "aggregate MB/s"
	plan := faults.NewPlan(1,
		faults.StorageNodeCrash{At: degradedCrashAt, Node: degradedVictim},
		faults.StorageNodeRestart{At: degradedRestartAt, Node: degradedVictim},
	)
	for _, arch := range opt.Archs {
		cl := newCluster(opt, cluster.Config{Arch: arch, Clients: opt.Clients[0], Faults: plan, Backend: backend})
		res, err := workload.Degraded(cl, workload.DegradedConfig{
			CrashAt:   degradedCrashAt,
			RestartAt: degradedRestartAt,
			Tail:      degradedTail,
		})
		if inspect != nil {
			inspect(cl)
		}
		cl.Close()
		if err != nil {
			return fig, fmt.Errorf("%s/%s: %w", fig.ID, arch, err)
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

// Degraded is the repository's degraded-mode figure (not from the paper):
// aggregate write throughput before, during, and after a storage-node
// crash, per architecture, under one shared fault plan.  X is the phase
// (1=before, 2=during, 3=after).  See docs/FAULTS.md for interpretation.
func Degraded(opt Options) (Figure, error) {
	return crashFigure(Figure{
		ID:    "degraded",
		Title: "write under a storage-node crash (phases: 1=before 2=during 3=after)",
	}, opt, cluster.BackendMem, nil)
}

// Recovery is the repository's crash-recovery figure (not from the paper):
// the degraded-mode schedule re-run on the write-ahead-logged backend
// (cluster.Config.Backend "wal", docs/BACKENDS.md).  Unlike the degraded
// figure, the crash also discards the victim's volatile store image, so the
// restart must replay the node's journal before it rejoins — throughput
// across the three phases shows what durability costs and that recovery
// actually restores service.  X is the phase (1=before, 2=during,
// 3=after).  The figure errors if no journal records were replayed, so it
// cannot silently degenerate into the volatile degraded figure.
func Recovery(opt Options) (Figure, error) {
	var replayed float64
	fig, err := crashFigure(Figure{
		ID:    "recovery",
		Title: "write across a crash with WAL replay (phases: 1=before 2=during 3=after)",
	}, opt, cluster.BackendWAL, func(cl *cluster.Cluster) {
		replayed += cl.Metrics().Snapshot().Total("store_wal_replays_total")
	})
	if err == nil && replayed == 0 {
		err = fmt.Errorf("recovery: no WAL records replayed — the crash never exercised recovery")
	}
	return fig, err
}

// Window-sweep parameters: mixed request sizes (12 MB spanning every
// device down to single-stripe-unit slivers) make the transfer times
// heterogeneous, so the sweep shows how many slots it takes to keep every
// device busy behind a slow transfer.
var windowSweepBlocks = []int64{12 << 20, 64 << 10, 2 << 20, 8 << 10, 4 << 20, 256 << 10}

// windowSweepSizes are the MaxFlight values swept.
var windowSweepSizes = []int{1, 2, 4, 8, 16}

// WindowSweep is the repository's I/O-engine figure (not from the paper):
// aggregate mixed-size IOR write throughput as a function of the engine's
// window size (cluster.Config.MaxFlight) on the cacheless PVFS2 client,
// whose every application request fans straight out through the engine.  X
// is the window size; see docs/ARCHITECTURE.md ("The striped-I/O engine").
func WindowSweep(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{3}, []cluster.Arch{cluster.ArchPVFS2})
	fig := Figure{
		ID:     "window",
		Title:  "I/O-engine window-size sweep, mixed-size IOR",
		XLabel: "window",
		YLabel: "aggregate MB/s",
	}
	n := opt.Clients[0]
	for _, arch := range opt.Archs {
		s := Series{Label: archLabel(arch) + " window"}
		for _, w := range windowSweepSizes {
			cl := newCluster(opt, cluster.Config{Arch: arch, Clients: n, MaxFlight: w})
			res, err := workload.IOR(cl, workload.IORConfig{
				FileSize:    scaleBytes(120<<20, opt.Scale),
				MixedBlocks: windowSweepBlocks,
				Separate:    true,
			})
			cl.Close()
			if err != nil {
				return fig, fmt.Errorf("window/%s/%d: %w", arch, w, err)
			}
			s.Points = append(s.Points, Point{X: w, Y: res.ThroughputMBs()})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// SSHBuild regenerates the §6.4.3 phase comparison.
func SSHBuild(opt Options) (Figure, error) {
	opt = opt.withDefaults([]int{1}, fig8Archs)
	fig := Figure{ID: "SSH", Title: "OpenSSH build phases", XLabel: "phase", YLabel: "time (s)"}
	for _, arch := range opt.Archs {
		cl := newCluster(opt, cluster.Config{Arch: arch, Clients: 1})
		res, err := workload.SSHBuild(cl, 0)
		cl.Close()
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, Series{
			Label: archLabel(arch),
			Points: []Point{
				{X: 1, Y: res.Uncompress.Seconds()}, // 1 = uncompress
				{X: 2, Y: res.Configure.Seconds()},  // 2 = configure
				{X: 3, Y: res.Build.Seconds()},      // 3 = build
			},
		})
	}
	return fig, nil
}

// registry lists every figure in presentation order.  simOnly marks the
// figures that need the virtual clock — their throughput windows, latency
// percentiles, scrub schedules and membership changes are virtual-time
// quantities driven on the simulated fabric — and so refuse the TCP
// transport; the workloads underneath refuse it too, as their own API check.
var registry = []struct {
	id      string
	gen     func(Options) (Figure, error)
	simOnly bool
}{
	{"6a", Fig6a, false}, {"6b", Fig6b, false}, {"6c", Fig6c, false}, {"6d", Fig6d, false}, {"6e", Fig6e, false},
	{"7a", Fig7a, false}, {"7b", Fig7b, false}, {"7c", Fig7c, false}, {"7d", Fig7d, false},
	{"8a", Fig8a, false}, {"8b", Fig8b, false}, {"8c", Fig8c, false}, {"8d", Fig8d, false},
	{"ssh", SSHBuild, false}, {"degraded", Degraded, true}, {"recovery", Recovery, true}, {"window", WindowSweep, false},
	{"tail", Tail, true}, {"rebalance", Rebalance, true}, {"sweep", Sweep, true}, {"integrity", Integrity, true},
}

// The registry's three views: All maps figure IDs to their generators (a
// sim-only figure's entry refuses Options.Transport TCP before building
// anything), IDs lists the IDs in presentation order, and SimOnly holds the
// IDs a TCP run has to skip.
var (
	All     = map[string]func(Options) (Figure, error){}
	IDs     []string
	SimOnly = map[string]bool{}
)

func init() {
	for _, f := range registry {
		gen := f.gen
		if f.simOnly {
			SimOnly[f.id] = true
			gen = func(opt Options) (Figure, error) {
				if opt.Transport == cluster.TransportTCP {
					return Figure{}, fmt.Errorf("bench: figure %q needs the virtual clock (sim transport only)", f.id)
				}
				return f.gen(opt)
			}
		}
		IDs = append(IDs, f.id)
		All[f.id] = gen
	}
}
