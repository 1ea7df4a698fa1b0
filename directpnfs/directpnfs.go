// Package directpnfs is the public API of the Direct-pNFS reproduction: a
// simulated-cluster implementation of "Direct-pNFS: Scalable, transparent,
// and versatile access to parallel file systems" (Hildebrand & Honeyman,
// HPDC 2007).
//
// A Cluster wires one of the paper's five architectures — Direct-pNFS,
// native PVFS2, two- and three-tier file-based pNFS, and plain NFSv4 — onto
// a deterministic discrete-event fabric with the paper's testbed geometry.
// Applications run as simulated processes against an
// architecture-independent Mount (Create/Open/Read/Write/Fsync/Close plus
// namespace operations), and every benchmark figure from the paper's
// evaluation can be regenerated through the Figures registry.  New chooses a
// Mount's client protocol once — NFSv4.1 on four architectures, the PVFS2
// library on native PVFS2 — and every Mount call is one dispatch to it, with
// one contract: Create, for instance, creates or opens on every
// architecture.
//
// Quick start:
//
//	cfg := directpnfs.Config{Arch: directpnfs.ArchDirectPNFS, Clients: 4}
//	cl := directpnfs.New(cfg)
//	defer cl.Close()
//	elapsed, err := cl.Run(func(ctx *directpnfs.Ctx, m *directpnfs.Mount, i int) error {
//		f, err := m.Create(ctx, fmt.Sprintf("/data-%d", i))
//		if err != nil {
//			return err
//		}
//		if err := m.Write(ctx, f, 0, directpnfs.Synthetic(64<<20)); err != nil {
//			return err
//		}
//		return m.Close(ctx, f)
//	})
//
// All time is virtual: a run simulating minutes of cluster I/O completes in
// milliseconds and is exactly reproducible for a given Config.Seed.
package directpnfs

import (
	"fmt"

	"dpnfs/internal/bench"
	"dpnfs/internal/cluster"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/workload"
)

// Ctx is the per-process execution context threaded through every
// file-system call.
type Ctx = rpc.Ctx

// Arch selects a cluster architecture.
type Arch = cluster.Arch

// The five architectures the paper evaluates (§6.1).
const (
	ArchDirectPNFS = cluster.ArchDirectPNFS
	ArchPVFS2      = cluster.ArchPVFS2
	ArchPNFS2Tier  = cluster.ArchPNFS2Tier
	ArchPNFS3Tier  = cluster.ArchPNFS3Tier
	ArchNFSv4      = cluster.ArchNFSv4
)

// Archs lists all architectures in the paper's presentation order.
var Archs = cluster.Archs

// Config describes a simulated cluster; zero values take the paper's
// testbed defaults (6 back-end nodes, 2 MB stripe and wsize/rsize, gigabit
// Ethernet, 8 NFS server threads).
type Config = cluster.Config

// TransportKind selects how a cluster's RPC endpoints are wired.
type TransportKind = cluster.TransportKind

// The two transports every architecture runs on (Config.Transport).
const (
	// TransportSim is the discrete-event fabric: deterministic virtual
	// time, the mode all figures use.
	TransportSim = cluster.TransportSim
	// TransportTCP is real loopback sockets: wall-clock time, real bytes.
	TransportTCP = cluster.TransportTCP
)

// Registry is the unified observability registry every cluster carries
// (Cluster.Metrics): counters, gauges, and histograms from all layers,
// renderable as Prometheus text or a JSON snapshot.
type Registry = metrics.Registry

// Cluster is a fully wired simulated deployment.
type Cluster = cluster.Cluster

// Mount is the architecture-independent application view of one client.
type Mount = cluster.Mount

// File is an open file on a Mount.
type File = cluster.File

// NodeStats is a per-node utilization snapshot.
type NodeStats = cluster.NodeStats

// New builds a cluster.
func New(cfg Config) *Cluster { return cluster.New(cfg) }

// Payload is bulk I/O data: real bytes or a synthetic length.
type Payload = payload.Payload

// Bytes wraps real data for end-to-end transfer.
func Bytes(b []byte) Payload { return payload.Real(b) }

// Synthetic describes n bytes without materializing them — benchmarks move
// simulated terabytes this way.
func Synthetic(n int64) Payload { return payload.Synthetic(n) }

// Workload configurations and runners (paper §6.2-§6.4).
type (
	// IORConfig parameterizes the IOR micro-benchmark.
	IORConfig = workload.IORConfig
	// ATLASConfig parameterizes the ATLAS Digitization replay.
	ATLASConfig = workload.ATLASConfig
	// BTIOConfig parameterizes the NAS BT-IO checkpoint benchmark.
	BTIOConfig = workload.BTIOConfig
	// OLTPConfig parameterizes the OLTP transaction benchmark.
	OLTPConfig = workload.OLTPConfig
	// PostmarkConfig parameterizes the Postmark small-file benchmark.
	PostmarkConfig = workload.PostmarkConfig
	// WorkloadResult is a workload execution outcome.
	WorkloadResult = workload.Result
)

// IOR runs the IOR micro-benchmark (Figures 6 and 7).
func IOR(cl *Cluster, cfg IORConfig) (WorkloadResult, error) { return workload.IOR(cl, cfg) }

// ATLAS runs the Digitization write replay (Figure 8a).
func ATLAS(cl *Cluster, cfg ATLASConfig) (WorkloadResult, error) { return workload.ATLAS(cl, cfg) }

// BTIO runs the checkpoint benchmark (Figure 8b).
func BTIO(cl *Cluster, cfg BTIOConfig) (WorkloadResult, error) { return workload.BTIO(cl, cfg) }

// OLTP runs the transaction benchmark (Figure 8c).
func OLTP(cl *Cluster, cfg OLTPConfig) (WorkloadResult, error) { return workload.OLTP(cl, cfg) }

// Postmark runs the small-file benchmark (Figure 8d).
func Postmark(cl *Cluster, cfg PostmarkConfig) (WorkloadResult, error) {
	return workload.Postmark(cl, cfg)
}

// Figure is a regenerated paper figure (a set of labelled series).
type Figure = bench.Figure

// FigureOptions tunes figure regeneration (scale, client counts).
type FigureOptions = bench.Options

// Figures maps figure IDs ("6a".."6e", "7a".."7d", "8a".."8d", "ssh") to
// their generators.
var Figures = bench.All

// FigureIDs lists the figure IDs in the paper's presentation order.
var FigureIDs = bench.IDs

// FigureSimOnly holds the IDs of the figures that need the virtual clock:
// their generators refuse FigureOptions.Transport TCP.
var FigureSimOnly = bench.SimOnly

// Generate regenerates one paper figure by ID ("6a".."6e", "7a".."7d",
// "8a".."8d", "ssh").  Unknown IDs return an error listing the known set.
func Generate(id string, opt FigureOptions) (Figure, error) {
	gen, ok := Figures[id]
	if !ok {
		return Figure{}, fmt.Errorf("directpnfs: unknown figure %q (known: %v)", id, FigureIDs)
	}
	return gen(opt)
}

// BenchReport is a machine-readable figure-run outcome: series plus
// per-figure metrics snapshots, written as JSON by dpnfs-bench -report.
type BenchReport = bench.Report

// NewBenchReport starts an empty report for the options; BenchReport.Add
// generates figures into it.
func NewBenchReport(opt FigureOptions) *BenchReport { return bench.NewReport(opt) }
