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
	"errors"
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
	"dpnfs/internal/sim"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/simnet"
	"dpnfs/internal/stripe"
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
	// client's default window (PVFS2: 8; NFS: 32) and leave the
	// tail-latency scheduling off (docs/ARCHITECTURE.md "Tail-latency
	// scheduling").  Request splitting is not an option: the PVFS2 client
	// splits at its fixed 256 KB flow buffer, and the NFS client sends the
	// WSize/RSize chunks it gathers whole.
	MaxFlight int // sliding-window size: concurrent outstanding requests
	// IOBackgroundShare caps the window fraction background work (NFS
	// write-back and readahead, rebalance copies) may hold; foreground
	// always dispatches first.
	IOBackgroundShare float64
	// IOHedge enables hedged duplicate reads for stragglers.
	IOHedge bool

	// DiskCacheBytes sets each storage node's page-cache capacity; 0 keeps
	// simdisk's default (2 GB, the testbed's RAM).
	DiskCacheBytes int64

	// Backend selects the store implementation behind every server
	// (docs/BACKENDS.md): "mem" (default; volatile, the behaviour all
	// figures are calibrated against) or "wal" (write-ahead logged — crash
	// events lose nothing synced).
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
	// New builds its mapper over the storage nodes and panics if the driver
	// refuses AggParams for that count.
	Aggregation string
	AggParams   []int64

	// WireChecksums makes servers attach a CRC32C to each READ payload and
	// clients verify it, closing the window between the store's block
	// checksum verification and the bytes landing in the client's cache.
	// Without it Direct-pNFS data servers send the block sums their store
	// verified instead, which the client's page cache checks
	// (docs/BACKENDS.md "Block checksums").
	WireChecksums bool

	// Metrics is the cluster's observability registry, threaded through
	// every layer (rpc, nfs, pvfs — see docs/METRICS.md).  Nil gets a fresh
	// per-cluster registry; benchmarks pass a shared one to aggregate a
	// whole figure sweep.
	Metrics *metrics.Registry
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

// storageNodes is how many back ends become PVFS2 storage nodes: all of
// them, except on 3-tier, which halves them into storage nodes and
// dedicated data servers.
func (c Config) storageNodes() int {
	if c.Arch == ArchPNFS3Tier {
		return c.Backends / 2
	}
	return c.Backends
}

// threeTierDiskScale is a 3-tier storage node's disk bandwidth relative to
// one disk: two disks each, but shared CPU and bus keep it below 2x (paper
// §6.2).
const threeTierDiskScale = 1.7

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
	// agg is Config.Aggregation's mapper over the storage nodes built at
	// construction; nil for the default round-robin.
	agg stripe.Mapper

	PVFSMeta *pvfs.MetaServer
	mounts   []*Mount
	mdsNode  *simnet.Node

	// Fault-injection state (docs/FAULTS.md).  injected counts applied
	// fault events (faults_injected_total); it is registered by the first
	// Schedule that queues one.
	skippedFaults *metrics.CounterVec
	injected      *metrics.CounterVec

	// Membership state (elastic join/drain, membership.go).  members holds
	// one record per storage node in build order, drained ones included.
	// nextDevID hands out stable pNFS device IDs in build order — storage
	// nodes, then 3-tier data servers, then joiners — and never reuses one
	// (see the device-ID stability note in package pnfs).  memberMu guards
	// both, and schedule, the events queued for the next run, so a join or
	// drain is checked against the queue it joins.
	memberMu    sync.Mutex
	members     []*member
	nextDevID   uint32
	schedule    faults.Plan
	memberGauge *metrics.GaugeVec

	// Rebalance bookkeeping: virtual-time window of the last migration
	// (membership.go).
	migStart, migEnd time.Duration
	rebalanceBytes   *metrics.Counter
	rebalanceFiles   *metrics.Counter

	// directMDS is the Direct-pNFS metadata server's backend, which tests
	// reach here.
	directMDS *directMDSBackend
}

// New builds a cluster for the configuration.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	// Membership refuses non-default aggregations, so the storage-node count
	// checked here is the one every layout and the substrate keep.
	var agg stripe.Mapper
	if cfg.Aggregation != "" {
		var err error
		if agg, err = pnfs.NewMapper(cfg.Aggregation, cfg.AggParams, cfg.storageNodes()); err != nil {
			panic(fmt.Sprintf("cluster: %v", err)) // construction-time configuration bug, like unknown Arch
		}
	}
	// Every instrument this cluster resolves — through any layer — carries
	// the architecture label, so a registry shared across a figure sweep
	// (bench.Options.Metrics) stays attributable per architecture.
	cfg.Metrics = cfg.Metrics.WithLabel("arch", string(cfg.Arch))
	k := sim.NewKernel(cfg.Seed)
	f := simnet.NewFabric(k)
	cl := &Cluster{Cfg: cfg, K: k, Fabric: f, agg: agg}
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

	cl.buildBackend()
	// mds is the node the NFS clients mount; native PVFS2 has none.
	var mds *simnet.Node
	switch cfg.Arch {
	case ArchDirectPNFS:
		mds = cl.buildDirect()
	case ArchPVFS2:
	case ArchPNFS2Tier:
		mds = cl.build2Tier()
	case ArchPNFS3Tier:
		mds = cl.build3Tier()
	case ArchNFSv4:
		mds = cl.buildNFSv4()
	default:
		panic(fmt.Sprintf("cluster: unknown architecture %q", cfg.Arch))
	}
	// The client protocol is chosen here, once per mount.
	for i := 0; i < cfg.Clients; i++ {
		n := cl.clientNode(i)
		var p protocol
		if mds != nil {
			p = nfsMount{cl.nfsMountAt(n, mds)}
		} else {
			p = pvfsMount{cl.pvfsClientAt(n), cfg.Real}
		}
		cl.mounts = append(cl.mounts, &Mount{node: n, p: p})
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

// buildBackend creates the PVFS2 storage nodes and metadata manager.  The
// metadata manager runs on storage node 0 ("one storage node doubling as a
// metadata manager", §6.1).
func (cl *Cluster) buildBackend() {
	cfg := cl.Cfg
	nodes := cfg.storageNodes()
	for i := 0; i < nodes; i++ {
		cl.addStorageSubstrate(cl.Fabric.AddNode(simnet.NodeConfig{
			Name:        fmt.Sprintf("io%d", i),
			BytesPerSec: cfg.NetBPS,
		}))
	}
	meta := cl.members[0]
	cl.mdsNode = meta.node
	// The first distribution is built like every later one, plus the
	// substrate's replication factor.
	dist := cl.activeDist()
	dist.Copies = cl.distCopies()
	cl.PVFSMeta = pvfs.NewMetaServer(pvfs.MetaConfig{
		Transport: cl.tr, Node: cl.mdsNode,
		Dist:    dist,
		Dial:    func(id uint32) rpc.Conn { return cl.dialDaemon(cl.mdsNode.Name, id, true) },
		Metrics: cfg.Metrics,
		Store:   cfg.MetadataBackend("mds", meta.disk, cfg.Metrics),
	})
	cl.updateMemberGauges()
}

// distCopies resolves the replication factor the physical PVFS2 substrate
// stores under: the replicated aggregation's copy count, on every
// architecture.  Replicating the substrate itself (not just the Direct-pNFS
// layout) is what gives every client stack a live copy to read-repair
// corrupt blocks from.  New has checked that the copy count divides the
// storage nodes.
func (cl *Cluster) distCopies() uint32 {
	if r, ok := cl.agg.(*stripe.Replicated); ok && r.Copies > 1 {
		return uint32(r.Copies)
	}
	return 0
}

// addStorageSubstrate attaches a disk, an object store (via the configured
// backend factory), and a PVFS2 storage daemon to node n, and records the
// node as an active member under the next stable device ID.
func (cl *Cluster) addStorageSubstrate(n *simnet.Node) *member {
	cfg := cl.Cfg
	dcfg := simdisk.DefaultConfig(n.Name + "/disk")
	if cfg.DiskCacheBytes != 0 {
		dcfg.CacheBytes = cfg.DiskCacheBytes
	}
	if cfg.Arch == ArchPNFS3Tier {
		dcfg.ReadBPS *= threeTierDiskScale
		dcfg.WriteBPS *= threeTierDiskScale
	}
	disk := simdisk.New(dcfg)
	m := &member{node: n, disk: disk, state: memberActive}
	m.storage = pvfs.NewStorageServer(pvfs.StorageConfig{
		Transport: cl.tr, Node: n, Disk: disk,
		Metrics:       cfg.Metrics,
		Store:         cfg.ContentBackend(n.Name, disk, cfg.Metrics),
		WireChecksums: cfg.WireChecksums,
	})
	cl.memberMu.Lock()
	m.id = cl.newDevID()
	cl.members = append(cl.members, m)
	cl.memberMu.Unlock()
	return m
}

// newDevID allocates the next stable pNFS device ID (memberMu held, or the
// cluster still under construction).
func (cl *Cluster) newDevID() pnfs.DeviceID {
	id := pnfs.DeviceID(cl.nextDevID)
	cl.nextDevID++
	return id
}

// pvfsClientAt builds a foreground PVFS2 client library instance on the
// given node.
func (cl *Cluster) pvfsClientAt(n *simnet.Node) *pvfs.Client {
	return cl.pvfsClientWith(n, 0, "")
}

// pvfsClientWith builds a PVFS2 client on n with an explicit QoS class and
// issuer label (zero values keep the foreground/"pvfs" behaviour).  The
// client dials each storage daemon by stable server ID through the member
// table (dialDaemon), so its files keep addressing the right daemons across
// membership changes.
func (cl *Cluster) pvfsClientWith(n *simnet.Node, class ioengine.Class, issuer string) *pvfs.Client {
	return pvfs.NewClient(pvfs.ClientConfig{
		Node:    n,
		Meta:    cl.dial(n.Name, cl.mdsNode.Name, pvfs.ServiceMeta),
		Dial:    func(id uint32) rpc.Conn { return cl.dialDaemon(n.Name, id, false) },
		Class:   class,
		Issuer:  issuer,
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
		BackgroundShare: cl.Cfg.IOBackgroundShare,
		Hedge:           cl.Cfg.IOHedge,
	}
}

// clientNode creates the i-th application client node.
func (cl *Cluster) clientNode(i int) *simnet.Node {
	return cl.Fabric.AddNode(simnet.NodeConfig{
		Name:        fmt.Sprintf("c%d", i),
		BytesPerSec: cl.Cfg.NetBPS,
	})
}

// nfsMountAt builds an NFSv4.1 mount on node n against the MDS node.
func (cl *Cluster) nfsMountAt(n *simnet.Node, mdsNode *simnet.Node) *nfs.Client {
	return nfs.NewClient(nfs.ClientConfig{
		Node: n,
		Name: n.Name,
		MDS:  cl.dial(n.Name, mdsNode.Name, ServiceMDS),
		DialDS: func(addr string) rpc.Conn {
			return cl.dial(n.Name, addr, ServiceDS)
		},
		WSize: cl.Cfg.WSize, RSize: cl.Cfg.RSize,
		Engine:  cl.engineConfig(),
		Real:    cl.Cfg.Real,
		Metrics: cl.Cfg.Metrics,
	})
}

// buildDirect wires Direct-pNFS: an NFS data server on every storage node
// (loopback conduit to the local daemon) and the metadata server co-located
// with the PVFS2 MDS, serving translated layouts.  Clients mount the MDS.
func (cl *Cluster) buildDirect() *simnet.Node {
	for _, m := range cl.members {
		cl.directDSOn(m)
	}
	mdsBackend := &directMDSBackend{
		// No node and no registry: the in-process client charges no library
		// CPU and registers no series, so a namespace verb costs the MDS what
		// MetaServer.Handle charges for it, and nothing more.
		pvfsNamespace: pvfsNamespace{pv: pvfs.NewClient(pvfs.ClientConfig{Meta: rpc.LocalConn(cl.PVFSMeta.Handle)})},
		meta:          cl.PVFSMeta,
		agg:           cl.Cfg.Aggregation,
		aggP:          cl.Cfg.AggParams,
		cl:            cl,
	}
	mdsBackend.pvfsData = pvfsData{lib: cl.pvfsClientAt(cl.mdsNode), open: mdsBackend.openCurrent}
	cl.directMDS = mdsBackend
	nfsServeOn(cl, cl.mdsNode, ServiceMDS, mdsBackend)
	return cl.mdsNode
}

// directDSOn serves a Direct-pNFS data server on the member's node, in
// front of its co-located storage daemon.
func (cl *Cluster) directDSOn(m *member) {
	nfsServeOn(cl, m.node, ServiceDS, &directDSBackend{storage: m.storage, node: m.node})
}

// build2Tier wires file-based pNFS with data servers co-located with the
// storage nodes but striping blindly over logical offsets.  Clients mount
// the metadata server on the PVFS2 MDS node.
func (cl *Cluster) build2Tier() *simnet.Node {
	for _, m := range cl.members {
		cl.exportDSOn(m.node)
	}
	cl.blindMDSOn(cl.mdsNode, nil)
	return cl.mdsNode
}

// build3Tier wires file-based pNFS with dedicated data-server nodes in
// front of the storage nodes.  Clients mount the first data server, which
// doubles as the metadata server.
func (cl *Cluster) build3Tier() *simnet.Node {
	nDS := cl.Cfg.Backends - len(cl.members)
	var devs []pnfs.DeviceInfo
	for i := 0; i < nDS; i++ {
		n := cl.Fabric.AddNode(simnet.NodeConfig{
			Name:        fmt.Sprintf("ds%d", i),
			BytesPerSec: cl.Cfg.NetBPS,
		})
		devs = append(devs, pnfs.DeviceInfo{ID: cl.newDevID(), Addr: n.Name})
		cl.exportDSOn(n)
	}
	mds := cl.Fabric.Node(devs[0].Addr)
	cl.blindMDSOn(mds, devs)
	return mds
}

// buildNFSv4 wires the single-server export, the node clients mount.
func (cl *Cluster) buildNFSv4() *simnet.Node {
	srv := cl.Fabric.AddNode(simnet.NodeConfig{Name: "nfssrv", BytesPerSec: cl.Cfg.NetBPS})
	nfsServeOn(cl, srv, ServiceMDS, cl.exportOn(srv))
	return srv
}

// exportOn builds the backend of an NFS server on node n that re-exports the
// PVFS2 file system through its own client library instance (logical offsets,
// no layout knowledge).
func (cl *Cluster) exportOn(n *simnet.Node) *exportBackend {
	pv := cl.pvfsClientAt(n)
	b := &exportBackend{}
	b.pvfsNamespace = pvfsNamespace{pv, func(h pvfs.Handle, p pvfs.Placement) { b.keep(h, p) }}
	b.pvfsData = pvfsData{pv, n, b.file}
	return b
}

// exportDSOn registers a file-based pNFS data server on node n.
func (cl *Cluster) exportDSOn(n *simnet.Node) {
	nfsServeOn(cl, n, ServiceDS, cl.exportOn(n))
}

// blindMDSOn registers the two/three-tier pNFS metadata server on node n,
// handing out blind layouts over the data-server tier (nil: the storage
// nodes' data servers).
func (cl *Cluster) blindMDSOn(n *simnet.Node, tier []pnfs.DeviceInfo) {
	bl := &blindLayouts{cl: cl, tier: tier, stripe: cl.Cfg.WSize, shift: 1}
	nfsServeOn(cl, n, ServiceMDS, blindMDSBackend{cl.exportOn(n), bl})
}

// nfsServeOn registers an NFS server for a backend under an explicit
// service name.
func nfsServeOn(cl *Cluster, n *simnet.Node, service string, b nfs.Backend) {
	nfs.NewServer(nfs.ServerConfig{
		Backend: b, Node: n,
		Transport: nfsTransport(cl), Service: service, Metrics: cl.Cfg.Metrics,
		WireChecksums: cl.Cfg.WireChecksums,
	})
}

// nfsTransport is the transport NFS servers register on: the cluster's own.
// Tests wrap it to reach the requests a server decodes.
var nfsTransport = func(cl *Cluster) rpc.Transport { return cl.tr }

// Mounts returns the per-client application mounts.
func (cl *Cluster) Mounts() []*Mount { return cl.mounts }

// FaultCandidates returns the storage nodes a fault plan may crash without
// severing the metadata path: every storage node except the one doubling as
// metadata manager.  The list is identical in spirit across architectures
// ("io1", "io2", ...), so one plan drives all five.
func (cl *Cluster) FaultCandidates() []string {
	var out []string
	for _, m := range cl.liveMembers() {
		if m.node != cl.mdsNode {
			out = append(out, m.node.Name)
		}
	}
	return out
}

// Schedule queues every event of p for the next Run, RunClient or
// Reconcile, which replays them relative to its own start and then forgets
// them: a plan fires once.  Joins and drains are checked here, against the
// membership and the queue they join (admit); if one is refused, Schedule
// returns why and queues nothing.
func (cl *Cluster) Schedule(p *faults.Plan) error {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	queued := cl.schedule.Events
	faultEvents := false
	for _, ev := range p.Events {
		if err := cl.admit(ev); err != nil {
			cl.schedule.Events = queued
			return err
		}
		cl.schedule.Events = append(cl.schedule.Events, ev)
		faultEvents = faultEvents || laneOf(ev) == faultLane
	}
	if faultEvents && cl.injected == nil {
		cl.injected = cl.Cfg.Metrics.CounterVec("faults_injected_total",
			"Fault events applied to the cluster, by event kind and target node.",
			"kind", "node")
	}
	return nil
}

// A run replays its schedule on one driver flow per lane, started in this
// order: fault events, membership changes, scrub passes.  A rebalance or a
// scrub pass blocks its lane for as long as it takes; the other lanes keep
// their times.
const (
	faultLane = iota
	memberLane
	scrubLane
)

var laneNames = [...]string{"faults-driver", "reconcile-driver", "scrub-driver"}

func laneOf(ev faults.Event) int {
	switch ev.(type) {
	case faults.Join, faults.Drain:
		return memberLane
	case faults.Scrub:
		return scrubLane
	}
	return faultLane
}

// takeSchedule claims the queued events for the run about to start, split
// into lanes, each in stable At order.
func (cl *Cluster) takeSchedule() (lanes [len(laneNames)][]faults.Event) {
	cl.memberMu.Lock()
	var events []faults.Event
	if len(cl.schedule.Events) > 0 { // most runs have none: no sort, no garbage
		events = cl.schedule.Sorted()
		cl.schedule.Events = nil
	}
	cl.memberMu.Unlock()
	for _, ev := range events {
		l := laneOf(ev)
		lanes[l] = append(lanes[l], ev)
	}
	return lanes
}

// planTarget is the cluster as the faults.Target one lane replays events
// through.  Joins, drains and scrub passes need the lane's flow, and they
// are reached only this way, after Schedule has checked them.  Their
// failures collect in err, which the run returns; the run goes on.
type planTarget struct {
	*Cluster
	err error
}

func (t *planTarget) Join(ctx *rpc.Ctx, node string) {
	t.err = errors.Join(t.err, t.applyJoin(ctx, node))
}
func (t *planTarget) Drain(ctx *rpc.Ctx, node string) {
	t.err = errors.Join(t.err, t.applyDrain(ctx, node))
}
func (t *planTarget) Scrub(ctx *rpc.Ctx) { t.err = errors.Join(t.err, t.scrubPass(ctx)) }

// faultTargetable reports whether a fault event may touch the named node:
// it must be one the cluster built and must not have been drained away by
// membership.  Unknown and departed targets are counted no-ops
// (faults_skipped_total) rather than fabric-lookup panics — a fault plan
// outlives the topology it was written against.
func (cl *Cluster) faultTargetable(kind, node string) bool {
	cl.memberMu.Lock()
	m := cl.memberNamed(node)
	ok := cl.Fabric.Lookup(node) != nil && (m == nil || m.state != memberRemoved)
	cl.memberMu.Unlock()
	if ok {
		return true
	}
	cl.skippedFaults.With(kind, node).Inc()
	return false
}

// SetNodeDown implements faults.Target: the transport's switch for the
// node, which turns calls to it into retryable timeouts.
func (cl *Cluster) SetNodeDown(node string, down bool) {
	if cl.faultTargetable("node-down", node) {
		cl.tr.SetNodeDown(node, down)
	}
}

// SetLink implements faults.Target: loss/extra-delay on the node's NIC.
// Link faults are a property of the simulated network model, which only
// the fabric's sends read; over TCP (real sockets) they change nothing.
func (cl *Cluster) SetLink(node string, loss float64, extraRTT time.Duration) {
	if cl.faultTargetable("link", node) {
		cl.Fabric.Node(node).SetLink(loss, extraRTT)
	}
}

// SetDiskSlow implements faults.Target: scales the node's disk service
// time.  The disk model charges simulated processes only, so over TCP this
// changes nothing; targets without a disk (dedicated data servers, clients,
// drained nodes) are counted no-ops like any other untargetable node.
func (cl *Cluster) SetDiskSlow(node string, factor float64) {
	if !cl.faultTargetable("disk-slow", node) {
		return
	}
	if m := cl.live(node); m != nil {
		m.disk.SetSlowFactor(factor)
	} else {
		cl.skippedFaults.With("disk-slow", node).Inc()
	}
}

// Run starts fn as client i's application flow, next to the drivers of the
// scheduled events (Schedule), waits for all of them, and returns the time
// from the start until the last application finished: virtual on the
// fabric, wall clock over TCP.  Its error is the first application error
// joined with every failure of a join, drain or scrub pass of the plan; the
// applications run on through those.
func (cl *Cluster) Run(fn func(ctx *rpc.Ctx, m *Mount, i int) error) (time.Duration, error) {
	return cl.run(cl.mounts, fn)
}

// RunClient runs fn only on client i's mount (setup phases).
func (cl *Cluster) RunClient(i int, fn func(ctx *rpc.Ctx, m *Mount, i int) error) (time.Duration, error) {
	return cl.run(cl.mounts[i:i+1], fn)
}

// run runs fn on each of mounts next to the drivers of the schedule.  Only
// a run with applications observes cluster_run_seconds.
func (cl *Cluster) run(mounts []*Mount, fn func(ctx *rpc.Ctx, m *Mount, i int) error) (time.Duration, error) {
	flows := cl.flows()
	apps := make([]struct {
		err  error
		took time.Duration
	}, len(mounts))
	var targets [len(laneNames)]planTarget
	for lane, events := range cl.takeSchedule() {
		if len(events) == 0 {
			continue
		}
		tg := &targets[lane]
		tg.Cluster = cl
		// Each driver replays its lane relative to this run's start.  The
		// run waits for its drivers, so every event fires even if the
		// applications finish first — a paired crash/restart plan always
		// leaves the cluster healed, on both transports.
		flows.Go(laneNames[lane], func(ctx *rpc.Ctx) {
			start := ctx.Stamp()
			for _, ev := range events {
				pauseUntil(ctx, start, ev.When())
				ev.Apply(ctx, tg)
				if lane == faultLane {
					cl.injected.With(ev.Kind(), ev.Target()).Inc()
				}
			}
		})
	}
	for i, m := range mounts {
		flows.Go(fmt.Sprintf("app%d", i), func(ctx *rpc.Ctx) {
			start := ctx.Stamp()
			app := &apps[i]
			if app.err = m.p.mount(ctx); app.err != nil {
				return
			}
			app.err = fn(ctx, m, i)
			app.took = ctx.Since(start)
		})
	}
	if err := flows.Wait(); err != nil {
		return 0, err
	}
	var err error
	var d time.Duration
	for _, app := range apps {
		if err == nil {
			err = app.err
		}
		d = max(d, app.took)
	}
	for _, tg := range targets {
		if tg.err != nil {
			err = errors.Join(err, tg.err)
		}
	}
	if err != nil {
		return 0, err
	}
	if len(mounts) > 0 {
		cl.runSeconds.ObserveDuration(d)
	}
	return d, nil
}

// flows returns the starter for a run's top-level flows: on the kernel's
// virtual clock on the fabric, on the wall clock over TCP.
func (cl *Cluster) flows() rpc.Flows {
	if cl.Cfg.Transport == TransportTCP {
		return rpc.NewFlows(nil)
	}
	return rpc.NewFlows(cl.K)
}

// pauseUntil pauses a driver until offset at into the run it stamped at
// start.  A due offset does not pause at all: a zero pause is still a
// kernel event, and the figures depend on the event order.
func pauseUntil(ctx *rpc.Ctx, start rpc.Stamp, at time.Duration) {
	if d := at - ctx.Since(start); d > 0 {
		ctx.Pause(d)
	}
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

// Stats reports per-storage-node utilization accumulated so far, drained
// nodes included — the raw material for bottleneck analysis
// (cmd/dpnfs-trace).
func (cl *Cluster) Stats() []NodeStats {
	var out []NodeStats
	for _, m := range cl.members {
		s := NodeStats{
			Name:     m.node.Name,
			NICTx:    m.node.NIC.TxBusy(),
			NICRx:    m.node.NIC.RxBusy(),
			CPUBusy:  m.node.CPU.BusyTime(),
			DiskBusy: m.disk.BusyTime(),
		}
		s.DiskReads, s.DiskWrites, s.DiskCacheHits, s.DiskCacheMisses, _, _ = m.disk.Stats()
		out = append(out, s)
	}
	return out
}

// Now returns the cluster's current virtual time.
func (cl *Cluster) Now() time.Duration { return time.Duration(cl.K.Now()) }

// WarmCaches marks the named file's objects resident in the disk caches of
// the storage nodes that hold them — its placement's, under its data
// handle — reproducing the paper's warm-server-cache read setup (§6.2).
func (cl *Cluster) WarmCaches(path string) error {
	at, err := cl.PVFSMeta.Namespace().LookupPath(path)
	if err != nil {
		return err
	}
	place, err := cl.PVFSMeta.PlacementOf(pvfs.Handle(at.ID))
	if err != nil {
		return err
	}
	for _, m := range cl.members {
		m.disk.Warm(uint64(place.Data), 0, m.storage.ObjectSize(place.Data))
	}
	return nil
}
