// Package cluster assembles the five architectures the paper evaluates
// (§6.1) onto a simulated fabric with the testbed's geometry: six back-end
// nodes with one disk each (one doubling as metadata manager), gigabit
// Ethernet, 2 MB stripes, 2 MB wsize/rsize, and eight NFS server threads.
//
//	ArchDirectPNFS — pNFS servers co-located on every PVFS2 storage node;
//	                 the layout translator hands clients exact layouts and
//	                 the NFSv4 storage protocol goes direct to storage.
//	ArchPVFS2      — native PVFS2 striping clients (the exported FS).
//	ArchPNFS2Tier  — file-based pNFS with data servers on the storage
//	                 nodes but blind logical striping: data servers fetch
//	                 most bytes from their peers.
//	ArchPNFS3Tier  — file-based pNFS with three dedicated data servers in
//	                 front of three storage nodes (two disks each).
//	ArchNFSv4      — one NFSv4 server exporting the PVFS2 cluster.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"dpnfs/internal/faults"
	"dpnfs/internal/ioengine"
	"dpnfs/internal/metrics"
	"dpnfs/internal/nfs"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/scrub"
	"dpnfs/internal/sim"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/simnet"
)

// Arch selects one of the five evaluated architectures.
type Arch string

// The five architectures of §6.
const (
	ArchDirectPNFS Arch = "direct-pnfs"
	ArchPVFS2      Arch = "pvfs2"
	ArchPNFS2Tier  Arch = "pnfs-2tier"
	ArchPNFS3Tier  Arch = "pnfs-3tier"
	ArchNFSv4      Arch = "nfsv4"
)

// Archs lists all architectures in the paper's presentation order.
var Archs = []Arch{ArchDirectPNFS, ArchPVFS2, ArchPNFS2Tier, ArchPNFS3Tier, ArchNFSv4}

// TransportKind selects how a cluster's RPC endpoints are wired.
type TransportKind string

// Transport kinds.
const (
	// TransportSim runs every endpoint on the discrete-event fabric:
	// deterministic virtual time, the mode all figures use.
	TransportSim TransportKind = "sim"
	// TransportTCP runs every endpoint on real loopback sockets:
	// wall-clock time, real goroutine concurrency, real bytes on the wire.
	TransportTCP TransportKind = "tcp"
)

// Service names on the fabric.  Metadata and data roles co-exist on one
// node in several architectures, so they get distinct services.
const (
	ServiceMDS = "nfs-mds"
	ServiceDS  = "nfs-ds"
)

// Config describes one simulated cluster.
type Config struct {
	Arch     Arch
	Clients  int
	Backends int // back-end nodes incl. the metadata manager (paper: 6)

	StripeSize   int64   // parallel FS stripe (paper: 2 MB)
	WSize, RSize int64   // NFS transfer sizes (paper: 2 MB)
	NetBPS       float64 // NIC bandwidth (paper: gigabit; Fig 6c: 100 Mbps)

	// Striped-I/O engine options (internal/ioengine), applied to both the
	// NFS and PVFS2 clients through engineConfig.  Zero values keep each
	// client's defaults (PVFS2: window 8, 256 KB transfers; NFS: window 32,
	// no extra split) and leave the tail-latency scheduling off
	// (docs/ARCHITECTURE.md "Tail-latency scheduling").
	MaxFlight   int   // sliding-window size: concurrent outstanding requests
	MaxTransfer int64 // per-request payload cap; larger extents are split
	// IOBackgroundShare caps the window fraction background work (NFS
	// write-back and readahead, rebalance copies) may hold; foreground
	// always dispatches first.
	IOBackgroundShare float64
	// IOHedge enables hedged duplicate reads for stragglers.
	IOHedge bool

	Disk simdisk.Config // template; Name is overridden per node

	// Backend selects the store implementation behind every server
	// (docs/BACKENDS.md): "mem" (default; volatile, the behaviour all
	// figures are calibrated against), "wal" (write-ahead logged — crash
	// events lose nothing synced), or "cached" (memory front, WAL behind,
	// durable at sync/COMMIT points).
	Backend string
	// MetadataBackend and ContentBackend override the store factory per
	// role: MetadataBackend builds the PVFS2 metadata manager's namespace
	// store, ContentBackend builds each storage daemon's object store.
	// Nil derives both from Backend.
	MetadataBackend StoreFactory
	ContentBackend  StoreFactory

	Seed int64
	Real bool // carry real bytes end to end (tests/demos)

	// Transport selects the wiring: the simulated fabric (default) or real
	// loopback TCP.  The same architectures, backends, and workloads run on
	// either; only the bytes' journey differs.
	Transport TransportKind

	// Aggregation optionally overrides the layout's aggregation scheme for
	// Direct-pNFS (paper §4.3 pluggable drivers).  Empty means round-robin.
	Aggregation string
	AggParams   []int64

	// WireChecksums makes servers attach a CRC32C to each READ payload and
	// clients verify it, closing the window between the store's block
	// checksum verification and the bytes landing in the client's cache.
	WireChecksums bool

	// ScrubRateBPS bounds each node's background scrubber to this many
	// verified bytes per virtual second (0 = unpaced).  Scrub passes only
	// run when scheduled (ScheduleScrub) or driven explicitly (ScrubPass).
	ScrubRateBPS int64

	// Metrics is the cluster's observability registry, threaded through
	// every layer (rpc, nfs, pvfs — see docs/METRICS.md).  Nil gets a fresh
	// per-cluster registry; benchmarks pass a shared one to aggregate a
	// whole figure sweep.
	Metrics *metrics.Registry

	// Faults, when set, is the deterministic fault plan replayed against
	// the cluster (docs/FAULTS.md).  While armed (the default; see
	// ArmFaults) the plan re-arms relative to the start of every
	// Run/RunClient, so pair each crash with a restart to leave the
	// cluster healed between runs.  All five architectures accept the same
	// plan.
	Faults *faults.Plan
}

// Defaults fills in the paper's testbed values.
func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Backends <= 0 {
		c.Backends = 6
	}
	if c.StripeSize <= 0 {
		c.StripeSize = 2 << 20
	}
	if c.WSize <= 0 {
		c.WSize = 2 << 20
	}
	if c.RSize <= 0 {
		c.RSize = 2 << 20
	}
	if c.NetBPS == 0 {
		c.NetBPS = simnet.Gigabit
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Transport == "" {
		c.Transport = TransportSim
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Backend == "" {
		c.Backend = BackendMem
	}
	if c.MetadataBackend == nil || c.ContentBackend == nil {
		f, err := BackendFactory(c.Backend)
		if err != nil {
			panic(err) // construction-time configuration bug, like unknown Arch
		}
		if c.MetadataBackend == nil {
			c.MetadataBackend = f
		}
		if c.ContentBackend == nil {
			c.ContentBackend = f
		}
	}
	return c
}

// Cluster is a fully wired deployment: on the simulated fabric or over real
// loopback TCP, per Config.Transport.  In TCP mode the simnet nodes still
// exist as topology carriers (names, per-node CPU/NIC models), but no
// simulated services run and time is the wall clock.
type Cluster struct {
	Cfg    Config
	K      *sim.Kernel
	Fabric *simnet.Fabric

	tr         rpc.Transport
	runSeconds *metrics.Histogram

	Storage  []*pvfs.StorageServer
	Disks    []*simdisk.Disk
	PVFSMeta *pvfs.MetaServer
	mounts   []*Mount

	storageNodes []*simnet.Node
	mdsNode      *simnet.Node

	// Fault-injection state (Config.Faults, docs/FAULTS.md).
	injector      *faults.Injector
	faultMu       sync.Mutex
	disarmed      bool
	diskByNode    map[string]*simdisk.Disk
	storageByNode map[string]*pvfs.StorageServer
	skippedFaults *metrics.CounterVec

	// Membership state (elastic join/drain, membership.go).  devIDs maps a
	// node name to its stable pNFS device ID: allocated on first sight,
	// never reused after the node departs (see the device-ID stability note
	// in package pnfs).
	memberMu     sync.Mutex
	devIDs       map[string]pnfs.DeviceID
	nextDevID    uint32
	members      map[string]*member
	layoutGen    uint64
	pendingOps   []memberOp
	reconcileErr error
	memberGauge  *metrics.GaugeVec

	// Rebalance bookkeeping: virtual-time window of the last migration and
	// the test hooks the crash-during-drain suite uses (membership.go).
	migStart, migEnd  time.Duration
	migChunkHook      func(file, chunk int)
	migReissueHook    func()
	rebalanceBytes    *metrics.Counter
	rebalanceFiles    *metrics.Counter
	rebalanceReissued *metrics.Counter

	// Client/backend registries the reconciler pushes topology changes to.
	pvClients  []pvClientRef
	nfsClients []*nfs.Client
	exports    []*exportBackend
	directMDS  *directMDSBackend
	blind      *blindLayouts
	nodeByName map[string]*simnet.Node

	// Background-scrubber state (scrub.go): one scanner per storage node,
	// built on first use; scheduled pass times queued for the next Run.
	scrubOnce    sync.Once
	scrubbers    []*scrub.Scrubber
	scrubMu      sync.Mutex
	scrubTimes   []time.Duration
	scrubResults []ScrubOutcome
}

// pvClientRef remembers which node a PVFS2 client library lives on, so a
// join can dial it a conn to the new storage server.
type pvClientRef struct {
	c    *pvfs.Client
	node *simnet.Node
}

// New builds a cluster for the configuration.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	// Every instrument this cluster resolves — through any layer — carries
	// the architecture label, so a registry shared across a figure sweep
	// (bench.Options.Metrics) stays attributable per architecture.
	cfg.Metrics = cfg.Metrics.WithLabel("arch", string(cfg.Arch))
	k := sim.NewKernel(cfg.Seed)
	f := simnet.NewFabric(k)
	cl := &Cluster{
		Cfg: cfg, K: k, Fabric: f,
		diskByNode:    make(map[string]*simdisk.Disk),
		storageByNode: make(map[string]*pvfs.StorageServer),
		devIDs:        make(map[string]pnfs.DeviceID),
		members:       make(map[string]*member),
		nodeByName:    make(map[string]*simnet.Node),
	}
	cl.skippedFaults = cfg.Metrics.CounterVec("faults_skipped_total",
		"Fault events skipped because the target node is drained or unknown, by event kind and target node.",
		"kind", "node")
	cl.memberGauge = cfg.Metrics.GaugeVec("cluster_members",
		"Storage-node membership by state (active, draining, removed).",
		"state")
	cl.rebalanceBytes = cfg.Metrics.Counter("rebalance_bytes_total",
		"Bytes copied onto their new placement by membership rebalances.")
	cl.rebalanceFiles = cfg.Metrics.Counter("rebalance_files_total",
		"Files whose placement a membership rebalance moved.")
	cl.rebalanceReissued = cfg.Metrics.Counter("rebalance_reissued_chunks_total",
		"Migration chunks re-issued by the second (patient) rebalance pass.")
	switch cfg.Transport {
	case TransportTCP:
		tr := rpc.NewTCPTransport(0)
		tr.Metrics = cfg.Metrics
		cl.tr = tr
	case TransportSim:
		cl.tr = &rpc.FabricTransport{Fabric: f, Metrics: cfg.Metrics}
	default:
		panic(fmt.Sprintf("cluster: unknown transport %q", cfg.Transport))
	}
	cfg.Metrics.GaugeVec("cluster_info",
		"Cluster identity; constant 1, labeled by architecture and transport.",
		"transport").With(string(cfg.Transport)).Set(1)
	// Gauges describe one cluster; under a shared sweep registry each
	// architecture's series reflects its most recently built cluster.
	cfg.Metrics.Gauge("cluster_clients", "Application client mounts.").Set(int64(cfg.Clients))
	cfg.Metrics.Gauge("cluster_backends", "Back-end nodes incl. the metadata manager.").Set(int64(cfg.Backends))
	cl.runSeconds = cfg.Metrics.Histogram("cluster_run_seconds",
		"Workload run durations (virtual time on sim, wall clock on tcp).",
		[]float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000})

	switch cfg.Arch {
	case ArchDirectPNFS:
		cl.buildBackend(cfg.Backends, 1.0)
		cl.buildDirect()
	case ArchPVFS2:
		cl.buildBackend(cfg.Backends, 1.0)
		cl.buildPVFS2()
	case ArchPNFS2Tier:
		cl.buildBackend(cfg.Backends, 1.0)
		cl.build2Tier()
	case ArchPNFS3Tier:
		// Half the nodes become storage (two disks each: more bandwidth,
		// but shared CPU/bus keeps it below 2x — paper §6.2), the other
		// half become dedicated data servers.
		cl.buildBackend(cfg.Backends/2, 1.7)
		cl.build3Tier()
	case ArchNFSv4:
		cl.buildBackend(cfg.Backends, 1.0)
		cl.buildNFSv4()
	default:
		panic(fmt.Sprintf("cluster: unknown architecture %q", cfg.Arch))
	}
	if cfg.Faults != nil {
		cl.injector = faults.NewInjector(cfg.Faults, cl, cfg.Metrics)
	}
	return cl
}

// dial opens a transport conn between two logical nodes, failing loudly:
// wiring errors are construction-time bugs.
func (cl *Cluster) dial(from, to, service string) rpc.Conn {
	conn, err := cl.tr.Dial(from, to, service)
	if err != nil {
		panic(fmt.Sprintf("cluster: dial %s->%s/%s: %v", from, to, service, err))
	}
	return conn
}

// addNode creates a fabric node and records it in the cluster's node
// registry (the registry is what lets fault injection distinguish "known
// node" from "typo or departed member").
func (cl *Cluster) addNode(cfg simnet.NodeConfig) *simnet.Node {
	n := cl.Fabric.AddNode(cfg)
	cl.nodeByName[n.Name] = n
	return n
}

// buildBackend creates the PVFS2 storage nodes and metadata manager.  The
// metadata manager runs on storage node 0 ("one storage node doubling as a
// metadata manager", §6.1).
func (cl *Cluster) buildBackend(nodes int, diskScale float64) {
	cfg := cl.Cfg
	var ioConnsFromMDS []rpc.Conn
	for i := 0; i < nodes; i++ {
		n := cl.addNode(simnet.NodeConfig{
			Name:        fmt.Sprintf("io%d", i),
			BytesPerSec: cfg.NetBPS,
		})
		cl.addStorageSubstrate(n, diskScale)
	}
	cl.mdsNode = cl.storageNodes[0]
	for _, n := range cl.storageNodes {
		ioConnsFromMDS = append(ioConnsFromMDS, cl.dial(cl.mdsNode.Name, n.Name, pvfs.ServiceIO))
	}
	cl.PVFSMeta = pvfs.NewMetaServer(pvfs.MetaConfig{
		Transport: cl.tr, Node: cl.mdsNode,
		Dist: pvfs.DistParams{
			StripeSize: cfg.StripeSize,
			NumServers: uint32(len(cl.storageNodes)),
			Copies:     cl.distCopies(len(cl.storageNodes)),
		},
		IOConns: ioConnsFromMDS,
		Metrics: cfg.Metrics,
		Store:   cfg.MetadataBackend("mds", cl.diskByNode[cl.mdsNode.Name], cfg.Metrics),
	})
	cl.updateMemberGauges()
}

// distCopies resolves the replication factor the physical PVFS2 substrate
// stores under: the replicated aggregation's copy count, on every
// architecture.  Replicating the substrate itself (not just the Direct-pNFS
// layout) is what gives every client stack a live copy to read-repair
// corrupt blocks from.  Geometry the copy count cannot divide leaves the
// substrate unreplicated — the layout driver rejects it loudly on first
// use (pnfs.AggReplicated registration).
func (cl *Cluster) distCopies(nodes int) uint32 {
	if cl.Cfg.Aggregation != pnfs.AggReplicated || len(cl.Cfg.AggParams) < 1 {
		return 0
	}
	if c := cl.Cfg.AggParams[0]; c > 1 && nodes%int(c) == 0 {
		return uint32(c)
	}
	return 0
}

// addStorageSubstrate attaches a disk, an object store (via the configured
// backend factory), and a PVFS2 storage daemon to node n, and registers the
// node as an active member with a freshly allocated stable device ID.
func (cl *Cluster) addStorageSubstrate(n *simnet.Node, diskScale float64) *pvfs.StorageServer {
	cfg := cl.Cfg
	cl.storageNodes = append(cl.storageNodes, n)
	dcfg := cfg.Disk
	dcfg.Name = n.Name + "/disk"
	if dcfg.ReadBPS == 0 {
		dcfg = simdisk.DefaultConfig(dcfg.Name)
	}
	dcfg.ReadBPS *= diskScale
	dcfg.WriteBPS *= diskScale
	disk := simdisk.New(dcfg)
	cl.Disks = append(cl.Disks, disk)
	cl.diskByNode[n.Name] = disk
	ss := pvfs.NewStorageServer(pvfs.StorageConfig{
		Transport: cl.tr, Node: n, Disk: disk,
		Metrics:       cfg.Metrics,
		Store:         cfg.ContentBackend(n.Name, disk, cfg.Metrics),
		WireChecksums: cfg.WireChecksums,
	})
	cl.Storage = append(cl.Storage, ss)
	cl.storageByNode[n.Name] = ss
	cl.members[n.Name] = &member{node: n, id: cl.devIDFor(n.Name), state: memberActive}
	return ss
}

// devIDFor returns the node's stable pNFS device ID, allocating the next
// free ID on first sight.  IDs are handed out in first-sight order — so the
// initial build matches the historical positional numbering — and are never
// reused, even after the node drains.
func (cl *Cluster) devIDFor(name string) pnfs.DeviceID {
	if id, ok := cl.devIDs[name]; ok {
		return id
	}
	id := pnfs.DeviceID(cl.nextDevID)
	cl.nextDevID++
	cl.devIDs[name] = id
	return id
}

// pvfsClientAt builds a PVFS2 client library instance on the given node.
// Every client is recorded in pvClients so a later join can hand it a conn
// to the new storage server.
func (cl *Cluster) pvfsClientAt(n *simnet.Node) *pvfs.Client {
	c := cl.pvfsClientWith(n, 0, "", rpc.RetryPolicy{})
	cl.pvClients = append(cl.pvClients, pvClientRef{c: c, node: n})
	return c
}

// pvfsClientWith builds a PVFS2 client on n with an explicit QoS class,
// issuer label, and retry policy (zero values keep the foreground/"pvfs"/
// default-retry behaviour).  The client's IO conns are keyed by stable
// server ID, so its files keep addressing the right daemons across
// membership changes.
func (cl *Cluster) pvfsClientWith(n *simnet.Node, class ioengine.Class, issuer string, retry rpc.RetryPolicy) *pvfs.Client {
	var io []rpc.Conn
	var ids []uint32
	for _, s := range cl.storageNodes {
		if m := cl.members[s.Name]; m != nil && m.state == memberRemoved {
			continue
		}
		io = append(io, cl.dial(n.Name, s.Name, pvfs.ServiceIO))
		ids = append(ids, uint32(cl.devIDFor(s.Name)))
	}
	return pvfs.NewClient(pvfs.ClientConfig{
		Node:    n,
		Meta:    cl.dial(n.Name, cl.mdsNode.Name, pvfs.ServiceMeta),
		IO:      io,
		IOIDs:   ids,
		Class:   class,
		Issuer:  issuer,
		Retry:   retry,
		Engine:  cl.engineConfig(),
		Metrics: cl.Cfg.Metrics,
	})
}

// engineConfig is the one place the cluster's striped-I/O options become an
// ioengine.Config; both mount builders pass it on, and each client fills in
// its own name, issuer, registry and default window.
func (cl *Cluster) engineConfig() ioengine.Config {
	return ioengine.Config{
		MaxFlight:       cl.Cfg.MaxFlight,
		MaxTransfer:     cl.Cfg.MaxTransfer,
		BackgroundShare: cl.Cfg.IOBackgroundShare,
		Hedge:           cl.Cfg.IOHedge,
	}
}

// clientNode creates the i-th application client node.
func (cl *Cluster) clientNode(i int) *simnet.Node {
	return cl.addNode(simnet.NodeConfig{
		Name:        fmt.Sprintf("c%d", i),
		BytesPerSec: cl.Cfg.NetBPS,
	})
}

// nfsMountAt builds an NFSv4.1 mount on node n against the MDS node.  The
// client is recorded in nfsClients so the membership reconciler can recall
// its layouts (the in-process stand-in for CB_LAYOUTRECALL).
func (cl *Cluster) nfsMountAt(n *simnet.Node, mdsNode *simnet.Node) *nfs.Client {
	c := nfs.NewClient(nfs.ClientConfig{
		Node: n,
		Name: n.Name,
		MDS:  cl.dial(n.Name, mdsNode.Name, ServiceMDS),
		DialDS: func(addr string) rpc.Conn {
			return cl.dial(n.Name, addr, ServiceDS)
		},
		WSize: cl.Cfg.WSize, RSize: cl.Cfg.RSize,
		MaxReadAhead: 8 * cl.Cfg.RSize,
		Engine:       cl.engineConfig(),
		Real:         cl.Cfg.Real,
		Metrics:      cl.Cfg.Metrics,
	})
	cl.nfsClients = append(cl.nfsClients, c)
	return c
}

// buildDirect wires Direct-pNFS: an NFS data server on every storage node
// (loopback conduit to the local daemon) and the metadata server co-located
// with the PVFS2 MDS, serving translated layouts.
func (cl *Cluster) buildDirect() {
	for i, n := range cl.storageNodes {
		nfsServeOn(cl, n, ServiceDS, &directDSBackend{
			storage: cl.Storage[i],
			node:    n,
		})
	}
	mdsBackend := &directMDSBackend{
		meta:        cl.PVFSMeta,
		deviceTable: deviceTable{devices: cl.deviceList(cl.storageNodes)},
		agg:         cl.Cfg.Aggregation,
		aggP:        cl.Cfg.AggParams,
		proxy:       cl.pvfsClientAt(cl.mdsNode),
	}
	cl.directMDS = mdsBackend
	nfsServeOn(cl, cl.mdsNode, ServiceMDS, mdsBackend)
	for i := 0; i < cl.Cfg.Clients; i++ {
		n := cl.clientNode(i)
		cl.mounts = append(cl.mounts, &Mount{cl: cl, node: n, nfsc: cl.nfsMountAt(n, cl.mdsNode)})
	}
}

// buildPVFS2 wires native PVFS2 clients.
func (cl *Cluster) buildPVFS2() {
	for i := 0; i < cl.Cfg.Clients; i++ {
		n := cl.clientNode(i)
		cl.mounts = append(cl.mounts, &Mount{cl: cl, node: n, pv: cl.pvfsClientAt(n)})
	}
}

// build2Tier wires file-based pNFS with data servers co-located with the
// storage nodes but striping blindly over logical offsets.
func (cl *Cluster) build2Tier() {
	for _, n := range cl.storageNodes {
		cl.exportDSOn(n)
	}
	cl.blindMDSOn(cl.mdsNode, cl.storageNodes)
	for i := 0; i < cl.Cfg.Clients; i++ {
		n := cl.clientNode(i)
		cl.mounts = append(cl.mounts, &Mount{cl: cl, node: n, nfsc: cl.nfsMountAt(n, cl.mdsNode)})
	}
}

// build3Tier wires file-based pNFS with dedicated data-server nodes in
// front of the storage nodes.
func (cl *Cluster) build3Tier() {
	nDS := cl.Cfg.Backends - len(cl.storageNodes)
	var dsNodes []*simnet.Node
	for i := 0; i < nDS; i++ {
		n := cl.addNode(simnet.NodeConfig{
			Name:        fmt.Sprintf("ds%d", i),
			BytesPerSec: cl.Cfg.NetBPS,
		})
		dsNodes = append(dsNodes, n)
		cl.exportDSOn(n)
	}
	cl.blindMDSOn(dsNodes[0], dsNodes)
	for i := 0; i < cl.Cfg.Clients; i++ {
		n := cl.clientNode(i)
		cl.mounts = append(cl.mounts, &Mount{cl: cl, node: n, nfsc: cl.nfsMountAt(n, dsNodes[0])})
	}
}

// buildNFSv4 wires the single-server export.
func (cl *Cluster) buildNFSv4() {
	srv := cl.addNode(simnet.NodeConfig{Name: "nfssrv", BytesPerSec: cl.Cfg.NetBPS})
	nfsServeOn(cl, srv, ServiceMDS, cl.exportOn(srv))
	for i := 0; i < cl.Cfg.Clients; i++ {
		n := cl.clientNode(i)
		cl.mounts = append(cl.mounts, &Mount{cl: cl, node: n, nfsc: cl.nfsMountAt(n, srv)})
	}
}

// deviceList builds pNFS device infos for a node set.  IDs come from the
// stable per-node registry, not the slice position: a device list rebuilt
// after a drain keeps every survivor under its original ID, and a list
// extended by a join gives the newcomer a never-before-seen ID.
func (cl *Cluster) deviceList(nodes []*simnet.Node) []pnfs.DeviceInfo {
	out := make([]pnfs.DeviceInfo, len(nodes))
	for i, n := range nodes {
		out[i] = pnfs.DeviceInfo{ID: cl.devIDFor(n.Name), Addr: n.Name}
	}
	return out
}

// exportOn builds the backend of an NFS server on node n that re-exports the
// PVFS2 file system through its own client library instance (logical offsets,
// no layout knowledge), recorded so the membership reconciler can switch it
// to placement-aware mode.
func (cl *Cluster) exportOn(n *simnet.Node) *exportBackend {
	b := &exportBackend{pv: cl.pvfsClientAt(n), node: n, dist: cl.PVFSMeta.Dist()}
	cl.exports = append(cl.exports, b)
	return b
}

// exportDSOn registers a file-based pNFS data server on node n.
func (cl *Cluster) exportDSOn(n *simnet.Node) {
	nfsServeOn(cl, n, ServiceDS, cl.exportOn(n))
}

// blindMDSOn registers the two/three-tier pNFS metadata server on node n,
// handing out blind layouts over dsNodes.
func (cl *Cluster) blindMDSOn(n *simnet.Node, dsNodes []*simnet.Node) {
	cl.blind = &blindLayouts{deviceTable: deviceTable{devices: cl.deviceList(dsNodes)}, stripe: cl.Cfg.WSize, shift: 1}
	nfsServeOn(cl, n, ServiceMDS, blindMDSBackend{cl.exportOn(n), cl.blind})
}

// nfsServeOn registers an NFS server for a backend under an explicit
// service name.
func nfsServeOn(cl *Cluster, n *simnet.Node, service string, b nfs.Backend) {
	nfs.NewServer(nfs.ServerConfig{
		Backend: b, Node: n,
		Transport: cl.tr, Service: service, Metrics: cl.Cfg.Metrics,
		WireChecksums: cl.Cfg.WireChecksums,
	})
}

// Mounts returns the per-client application mounts.
func (cl *Cluster) Mounts() []*Mount { return cl.mounts }

// FaultCandidates returns the storage nodes a fault plan may crash without
// severing the metadata path: every storage node except the one doubling as
// metadata manager.  The list is identical in spirit across architectures
// ("io1", "io2", ...), so one plan drives all five.
func (cl *Cluster) FaultCandidates() []string {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	var out []string
	for _, n := range cl.storageNodes {
		if n == cl.mdsNode {
			continue
		}
		if m := cl.members[n.Name]; m != nil && m.state == memberRemoved {
			continue
		}
		out = append(out, n.Name)
	}
	return out
}

// ArmFaults enables (the default) or disables replay of Config.Faults for
// subsequent runs — benchmarks disarm it around setup phases so only the
// measured run suffers the plan.
func (cl *Cluster) ArmFaults(on bool) {
	cl.faultMu.Lock()
	cl.disarmed = !on
	cl.faultMu.Unlock()
}

// armedInjector returns the injector if a plan is configured and armed.
func (cl *Cluster) armedInjector() *faults.Injector {
	cl.faultMu.Lock()
	defer cl.faultMu.Unlock()
	if cl.disarmed {
		return nil
	}
	return cl.injector
}

// faultTargetable reports whether a fault event may touch the named node:
// it must be one the cluster built and must not have been drained away by
// membership.  Unknown and departed targets are counted no-ops
// (faults_skipped_total) rather than fabric-lookup panics — a fault plan
// outlives the topology it was written against.
func (cl *Cluster) faultTargetable(kind, node string) bool {
	cl.memberMu.Lock()
	_, known := cl.nodeByName[node]
	m := cl.members[node]
	cl.memberMu.Unlock()
	if known && (m == nil || m.state != memberRemoved) {
		return true
	}
	cl.skippedFaults.With(kind, node).Inc()
	return false
}

// SetNodeDown implements faults.Target.  On the simulated fabric the node
// itself is marked down (the rpc layer turns calls to it into retryable
// timeouts); in TCP mode the transport gates every conn dialed to the node.
func (cl *Cluster) SetNodeDown(node string, down bool) {
	if !cl.faultTargetable("node-down", node) {
		return
	}
	if tcp, ok := cl.tr.(*rpc.TCPTransport); ok {
		tcp.SetNodeDown(node, down)
		return
	}
	cl.Fabric.Node(node).SetDown(down)
}

// SetLink implements faults.Target: loss/extra-delay on the node's NIC.
// Link faults are a property of the simulated network model; in TCP mode
// (real sockets) they are a no-op.
func (cl *Cluster) SetLink(node string, loss float64, extraRTT time.Duration) {
	if !cl.faultTargetable("link", node) {
		return
	}
	if _, ok := cl.tr.(*rpc.TCPTransport); ok {
		return
	}
	cl.Fabric.Node(node).SetLink(loss, extraRTT)
}

// SetDiskSlow implements faults.Target: scales the node's disk service
// time.  Disks are simulated-only state, so this is a no-op in TCP mode;
// targets without a disk (dedicated data servers, clients, drained nodes)
// are counted no-ops like any other untargetable node.
func (cl *Cluster) SetDiskSlow(node string, factor float64) {
	if !cl.faultTargetable("disk-slow", node) {
		return
	}
	if _, ok := cl.tr.(*rpc.TCPTransport); ok {
		return
	}
	if d, ok := cl.diskByNode[node]; ok {
		d.SetSlowFactor(factor)
	} else {
		cl.skippedFaults.With("disk-slow", node).Inc()
	}
}

// Run drives the simulation with fn as client i's application process and
// returns the virtual duration from start to when every application process
// has finished.
func (cl *Cluster) Run(fn func(ctx *rpc.Ctx, m *Mount, i int) error) (time.Duration, error) {
	return cl.runSubset(cl.mounts, fn)
}

// RunClient runs fn only on client i's mount (setup phases).
func (cl *Cluster) RunClient(i int, fn func(ctx *rpc.Ctx, m *Mount, i int) error) (time.Duration, error) {
	return cl.runSubset(cl.mounts[i:i+1], fn)
}

func (cl *Cluster) runSubset(mounts []*Mount, fn func(ctx *rpc.Ctx, m *Mount, i int) error) (time.Duration, error) {
	d, err := cl.runSubsetInner(mounts, fn)
	if err == nil {
		cl.runSeconds.ObserveDuration(d)
	}
	return d, err
}

func (cl *Cluster) runSubsetInner(mounts []*Mount, fn func(ctx *rpc.Ctx, m *Mount, i int) error) (time.Duration, error) {
	if cl.Cfg.Transport == TransportTCP {
		return cl.runSubsetRealtime(mounts, fn)
	}
	errs := make([]error, len(mounts))
	start := cl.K.Now()
	finish := start
	if inj := cl.armedInjector(); inj != nil {
		// The fault driver replays the plan relative to this run's start.
		// The kernel drains all scheduled events before Run returns, so
		// every event fires even if the applications finish first — a
		// paired crash/restart plan always leaves the cluster healed.
		events := inj.Events()
		cl.K.Go("faults-driver", func(p *sim.Proc) {
			for _, ev := range events {
				p.SleepUntilTime(start + sim.Time(ev.When()))
				inj.Apply(ev)
			}
		})
	}
	if ops := cl.takePendingOps(); len(ops) > 0 {
		// The membership reconciler runs as its own simulated process,
		// applying each scheduled join/drain relative to this run's start
		// (same shape as the fault driver above).  Errors are recorded on
		// the cluster — applications keep running through them, exactly as
		// they would through a failed operator action.
		cl.K.Go("reconcile-driver", func(p *sim.Proc) {
			ctx := &rpc.Ctx{P: p}
			for _, op := range ops {
				p.SleepUntilTime(start + sim.Time(op.at))
				if err := cl.applyMemberOp(ctx, op); err != nil {
					cl.memberMu.Lock()
					cl.reconcileErr = err
					cl.memberMu.Unlock()
				}
			}
		})
	}
	if times := cl.takeScrubTimes(); len(times) > 0 {
		// The scrub driver mirrors the fault driver: a finite schedule of
		// pass times replayed relative to this run's start, so the kernel
		// still drains and every scheduled pass runs even if the
		// applications finish first.  Scan failures are recorded in the
		// pass outcomes, not surfaced as run errors.
		cl.K.Go("scrub-driver", func(p *sim.Proc) {
			ctx := &rpc.Ctx{P: p}
			for _, at := range times {
				p.SleepUntilTime(start + sim.Time(at))
				cl.scrubPassCtx(ctx, at)
			}
		})
	}
	for i, m := range mounts {
		i, m := i, m
		cl.K.Go(fmt.Sprintf("app%d", i), func(p *sim.Proc) {
			ctx := &rpc.Ctx{P: p}
			if err := m.mount(ctx); err != nil {
				errs[i] = err
				return
			}
			if err := fn(ctx, m, i); err != nil {
				errs[i] = err
			}
			if p.Now() > finish {
				finish = p.Now()
			}
		})
	}
	if err := cl.K.Run(); err != nil {
		return 0, err
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Duration(finish - start), nil
}

// runSubsetRealtime drives the application processes as real goroutines
// against the TCP transport, measuring wall-clock time.  Ctx.P is nil: all
// simulated resource charges are no-ops and only the sockets set the pace.
func (cl *Cluster) runSubsetRealtime(mounts []*Mount, fn func(ctx *rpc.Ctx, m *Mount, i int) error) (time.Duration, error) {
	errs := make([]error, len(mounts))
	start := time.Now()
	if inj := cl.armedInjector(); inj != nil {
		// Wall-clock fault driver.  Events not yet due when the run ends
		// are skipped (unlike the simulated driver, which always drains);
		// plans for TCP runs should fit inside the workload's duration.
		stop := make(chan struct{})
		var drv sync.WaitGroup
		drv.Add(1)
		go func() {
			defer drv.Done()
			for _, ev := range inj.Events() {
				if d := time.Until(start.Add(ev.When())); d > 0 {
					select {
					case <-time.After(d):
					case <-stop:
						return
					}
				}
				inj.Apply(ev)
			}
		}()
		defer func() {
			close(stop)
			drv.Wait()
		}()
	}
	var wg sync.WaitGroup
	for i, m := range mounts {
		wg.Add(1)
		go func(i int, m *Mount) {
			defer wg.Done()
			ctx := &rpc.Ctx{}
			if err := m.mount(ctx); err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(ctx, m, i)
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// Transport exposes the cluster's RPC wiring (cmd/dpnfs-serve prints TCP
// addresses from it).
func (cl *Cluster) Transport() rpc.Transport { return cl.tr }

// Metrics returns the cluster's observability registry: every layer's
// instruments aggregated per cluster (or per figure sweep when Config
// supplied a shared registry).  cmd/dpnfs-serve exposes it at /metrics;
// dpnfs-bench embeds its snapshot in JSON reports.
func (cl *Cluster) Metrics() *metrics.Registry { return cl.Cfg.Metrics }

// Close tears down the cluster: listeners and connection pools in TCP
// mode, the simulation kernel's goroutines (server daemons, idle workers)
// on the fabric.  Every cluster must be closed, or it leaks sockets or
// goroutines and everything they reference.
func (cl *Cluster) Close() error {
	cl.K.Shutdown()
	return cl.tr.Close()
}

// NodeStats is a utilization snapshot for one back-end node.
type NodeStats struct {
	Name            string
	NICTx, NICRx    time.Duration
	CPUBusy         time.Duration
	DiskBusy        time.Duration
	DiskReads       uint64
	DiskWrites      uint64
	DiskCacheHits   uint64
	DiskCacheMisses uint64
}

// Stats reports per-storage-node utilization accumulated so far — the raw
// material for bottleneck analysis (cmd/dpnfs-trace).
func (cl *Cluster) Stats() []NodeStats {
	out := make([]NodeStats, len(cl.storageNodes))
	for i, n := range cl.storageNodes {
		s := NodeStats{
			Name:    n.Name,
			NICTx:   n.NIC.TxBusy(),
			NICRx:   n.NIC.RxBusy(),
			CPUBusy: n.CPU.BusyTime(),
		}
		if i < len(cl.Disks) {
			d := cl.Disks[i]
			s.DiskBusy = d.BusyTime()
			s.DiskReads, s.DiskWrites, s.DiskCacheHits, s.DiskCacheMisses, _, _ = d.Stats()
		}
		out[i] = s
	}
	return out
}

// Now returns the cluster's current virtual time.
func (cl *Cluster) Now() time.Duration { return time.Duration(cl.K.Now()) }

// WarmCaches marks every storage node's disk cache resident for the named
// file, reproducing the paper's warm-server-cache read setup (§6.2).
func (cl *Cluster) WarmCaches(path string) error {
	at, err := cl.PVFSMeta.Namespace().LookupPath(path)
	if err != nil {
		return err
	}
	h := uint64(at.ID)
	for i, s := range cl.Storage {
		size := s.ObjectSize(pvfs.Handle(h))
		cl.Disks[i].Warm(h, 0, size)
	}
	return nil
}
