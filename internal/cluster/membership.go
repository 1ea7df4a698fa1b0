package cluster

import (
	"fmt"
	"sort"
	"time"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/simnet"
)

// memberState tracks a storage node through the elastic-membership
// lifecycle.  A removed member's fabric node and daemon keep existing (the
// simulation has no tear-down), but fault targeting, device lists, and
// newly built clients all skip it, and its device ID is never reused.
type memberState int

const (
	memberActive memberState = iota
	memberDraining
	memberRemoved
)

// member is one storage node's membership record.
type member struct {
	node  *simnet.Node
	id    pnfs.DeviceID
	state memberState
}

// Membership operation kinds.
const (
	opJoin  = "join"
	opDrain = "drain"
)

// memberOp is one scheduled membership change, applied by the in-process
// reconciliation loop at virtual offset `at` relative to the next Run.
type memberOp struct {
	kind string
	name string
	at   time.Duration
}

// membershipSupported gates the elastic operations: they drive the
// simulated fabric (dialing conns and spawning servers mid-run has no TCP
// counterpart here) and rebalance only understands the default round-robin
// aggregation.
func (cl *Cluster) membershipSupported() error {
	if cl.Cfg.Transport != TransportSim {
		return fmt.Errorf("cluster: membership changes require the simulated transport")
	}
	if cl.Cfg.Aggregation != "" {
		return fmt.Errorf("cluster: membership changes require the default round-robin aggregation (have %q)", cl.Cfg.Aggregation)
	}
	return nil
}

// AddStorageNode schedules the join of a brand-new storage node at virtual
// offset at, relative to the start of the next Run (or Reconcile).  The
// node gets a never-before-seen stable device ID; existing files are
// rebalanced onto the widened stripe in the background.
func (cl *Cluster) AddStorageNode(name string, at time.Duration) error {
	if err := cl.membershipSupported(); err != nil {
		return err
	}
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	if _, ok := cl.nodeByName[name]; ok {
		return fmt.Errorf("cluster: node %q already exists", name)
	}
	if _, ok := cl.devIDs[name]; ok {
		return fmt.Errorf("cluster: node name %q was a member before; device IDs are never reused", name)
	}
	for _, op := range cl.pendingOps {
		if op.name == name {
			return fmt.Errorf("cluster: node %q already has a pending membership operation", name)
		}
	}
	cl.pendingOps = append(cl.pendingOps, memberOp{kind: opJoin, name: name, at: at})
	return nil
}

// DrainNode schedules the drain of an active storage node at virtual offset
// at, relative to the start of the next Run (or Reconcile): the node stops
// receiving new placements, its data migrates to the remaining members, and
// it is then removed from membership.  Its device ID retires with it.
func (cl *Cluster) DrainNode(name string, at time.Duration) error {
	if err := cl.membershipSupported(); err != nil {
		return err
	}
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	m := cl.members[name]
	if m == nil {
		return fmt.Errorf("cluster: %q is not a storage member", name)
	}
	if m.state != memberActive {
		return fmt.Errorf("cluster: %q is not active (already draining or removed)", name)
	}
	if m.node == cl.mdsNode {
		return fmt.Errorf("cluster: cannot drain %q: it doubles as the metadata manager", name)
	}
	for _, op := range cl.pendingOps {
		if op.name == name {
			return fmt.Errorf("cluster: node %q already has a pending membership operation", name)
		}
	}
	cl.pendingOps = append(cl.pendingOps, memberOp{kind: opDrain, name: name, at: at})
	return nil
}

// Reconcile applies every scheduled membership operation immediately, in a
// run of its own with no application workload.
func (cl *Cluster) Reconcile() error {
	if _, err := cl.runSubset(nil, nil); err != nil {
		return err
	}
	return cl.ReconcileErr()
}

// ReconcileErr returns the most recent reconciliation failure, if any.
// Applications keep running through a failed membership operation (exactly
// as they would through a failed operator action), so callers that schedule
// ops must check this after the run.
func (cl *Cluster) ReconcileErr() error {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	return cl.reconcileErr
}

// MigrationWindow returns the virtual-time window of the most recent
// rebalance (both zero when none ran).
func (cl *Cluster) MigrationWindow() (start, end time.Duration) {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	return cl.migStart, cl.migEnd
}

// takePendingOps claims the scheduled operations for the run that is about
// to start, ordered by their offsets.
func (cl *Cluster) takePendingOps() []memberOp {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	ops := cl.pendingOps
	cl.pendingOps = nil
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// applyMemberOp executes one scheduled membership change on the reconciler
// process.
func (cl *Cluster) applyMemberOp(ctx *rpc.Ctx, op memberOp) error {
	switch op.kind {
	case opJoin:
		return cl.applyJoin(ctx, op.name)
	case opDrain:
		return cl.applyDrain(ctx, op.name)
	}
	return fmt.Errorf("cluster: unknown membership op %q", op.kind)
}

// updateMemberGauges publishes cluster_members{state}.
func (cl *Cluster) updateMemberGauges() {
	cl.memberMu.Lock()
	var active, draining, removed int64
	for _, m := range cl.members {
		switch m.state {
		case memberActive:
			active++
		case memberDraining:
			draining++
		case memberRemoved:
			removed++
		}
	}
	cl.memberMu.Unlock()
	cl.memberGauge.With("active").Set(active)
	cl.memberGauge.With("draining").Set(draining)
	cl.memberGauge.With("removed").Set(removed)
}

// activeNodes returns the storage nodes that may receive new placements, in
// build order.
func (cl *Cluster) activeNodes() []*simnet.Node {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	var out []*simnet.Node
	for _, n := range cl.storageNodes {
		if m := cl.members[n.Name]; m != nil && m.state == memberActive {
			out = append(out, n)
		}
	}
	return out
}

// distFor builds the distribution that places files across the given nodes,
// carrying their stable server IDs explicitly.
func (cl *Cluster) distFor(nodes []*simnet.Node) pvfs.DistParams {
	ids := make([]uint32, len(nodes))
	cl.memberMu.Lock()
	for i, n := range nodes {
		ids[i] = uint32(cl.devIDFor(n.Name))
	}
	cl.memberMu.Unlock()
	stripe := cl.Cfg.StripeSize
	return pvfs.DistParams{StripeSize: stripe, NumServers: uint32(len(ids)), Servers: ids}
}

// applyJoin brings a brand-new storage node into the cluster: substrate
// (disk, object store, daemon), conns on the metadata manager and every
// client library, the architecture's pNFS surface, a new default
// distribution, and a background rebalance that spreads existing files over
// the widened stripe.
func (cl *Cluster) applyJoin(ctx *rpc.Ctx, name string) error {
	diskScale := 1.0
	if cl.Cfg.Arch == ArchPNFS3Tier {
		diskScale = 1.7 // match the storage tier built at construction
	}
	n := cl.addNode(simnet.NodeConfig{Name: name, BytesPerSec: cl.Cfg.NetBPS})
	cl.addStorageSubstrate(n, diskScale)
	id := uint32(cl.devIDFor(name))
	cl.updateMemberGauges()
	// Wire the new daemon into the metadata manager and every existing
	// client library, keyed by its stable server ID.
	cl.PVFSMeta.AddIOConn(id, cl.dial(cl.mdsNode.Name, name, pvfs.ServiceIO))
	for _, ref := range cl.pvClients {
		ref.c.AddServer(id, cl.dial(ref.node.Name, name, pvfs.ServiceIO))
	}
	// Architecture surface: Direct-pNFS gets an NFS data server co-located
	// with the new daemon; the 2-tier export gets a blind data server
	// re-exporting through a fresh client library.  The 3-tier and NFSv4
	// front ends are untouched — only the parallel FS underneath widened.
	switch cl.Cfg.Arch {
	case ArchDirectPNFS:
		nfsServeOn(cl, n, ServiceDS, &directDSBackend{
			storage: cl.Storage[len(cl.Storage)-1],
			node:    n,
		})
	case ArchPNFS2Tier:
		cl.exportDSOn(n)
	}
	target := cl.distFor(cl.activeNodes())
	cl.PVFSMeta.SetDefaultDist(target)
	if err := cl.rebalance(ctx, target); err != nil {
		return fmt.Errorf("cluster: rebalance after join of %s: %w", name, err)
	}
	cl.publishTopology()
	return nil
}

// applyDrain marks the node read-only for placement, migrates its data to
// the remaining members, and removes it from membership.
func (cl *Cluster) applyDrain(ctx *rpc.Ctx, name string) error {
	cl.memberMu.Lock()
	m := cl.members[name]
	if m == nil || m.state != memberActive || m.node == cl.mdsNode {
		cl.memberMu.Unlock()
		return fmt.Errorf("cluster: cannot drain %q", name)
	}
	m.state = memberDraining
	cl.memberMu.Unlock()
	cl.updateMemberGauges()
	survivors := cl.activeNodes()
	if len(survivors) == 0 {
		return fmt.Errorf("cluster: cannot drain %q: no storage members would remain", name)
	}
	target := cl.distFor(survivors)
	cl.PVFSMeta.SetDefaultDist(target)
	if err := cl.rebalance(ctx, target); err != nil {
		return fmt.Errorf("cluster: rebalance draining %s: %w", name, err)
	}
	// All data is off the node: remove it from membership.  Fault events
	// aimed at it become counted no-ops from here on.
	cl.memberMu.Lock()
	m.state = memberRemoved
	cl.memberMu.Unlock()
	delete(cl.diskByNode, name)
	delete(cl.storageByNode, name)
	cl.updateMemberGauges()
	cl.publishTopology()
	return nil
}

// publishTopology pushes the post-change geometry to every pNFS surface:
// device lists and the new layout generation on the metadata backends,
// placement-aware (dynamic) mode on the exports, and layout invalidation on
// every NFS client — the in-process stand-in for CB_LAYOUTRECALL.
func (cl *Cluster) publishTopology() {
	cl.memberMu.Lock()
	cl.layoutGen++
	gen := cl.layoutGen
	cl.memberMu.Unlock()
	active := cl.activeNodes()
	if cl.directMDS != nil {
		cl.directMDS.set(cl.deviceList(active), gen)
	}
	if cl.blind != nil {
		if cl.Cfg.Arch == ArchPNFS2Tier {
			// 2-tier data servers ride the storage nodes, so the blind
			// device list follows membership.
			cl.blind.set(cl.deviceList(active), gen)
		} else {
			// 3-tier: the dedicated data-server tier is unchanged, but the
			// layouts still move to the new generation so clients refetch.
			cl.blind.setGen(gen)
		}
	}
	for _, b := range cl.exports {
		b.setDynamic(gen)
	}
	for _, c := range cl.nfsClients {
		c.InvalidateLayouts()
	}
}

// rebalance copies every file whose placement differs from target onto
// target, through two Background-class PVFS2 client libraries on the
// metadata node: a fast-failing one for the first pass and a patient one
// for the single re-issue pass.  Chunks are written with Sync so every
// acknowledged byte is on stable storage before the placement flips, and
// source objects are left in place so reads under the previous layout
// generation stay correct until every client has been invalidated.  The
// Background class keeps migration inside the engines' BackgroundShare
// window slots, protecting foreground latency.
func (cl *Cluster) rebalance(ctx *rpc.Ctx, target pvfs.DistParams) error {
	cl.memberMu.Lock()
	cl.migStart = time.Duration(cl.K.Now())
	cl.memberMu.Unlock()
	defer func() {
		cl.memberMu.Lock()
		cl.migEnd = time.Duration(cl.K.Now())
		cl.memberMu.Unlock()
	}()
	mig := cl.pvfsClientWith(cl.mdsNode, ioengine.Background, "rebalance",
		rpc.RetryPolicy{Max: 2, Base: 50 * time.Millisecond, Cap: 100 * time.Millisecond})
	patient := cl.pvfsClientWith(cl.mdsNode, ioengine.Background, "rebalance", rpc.RetryPolicy{})
	files, err := cl.listFiles(ctx, patient)
	if err != nil {
		return err
	}
	for i, h := range files {
		if err := cl.migrateFile(ctx, mig, patient, h, i, target); err != nil {
			return err
		}
	}
	return nil
}

// listFiles walks the namespace from the root and returns every regular
// file's handle, in deterministic (sorted, depth-first) order.
func (cl *Cluster) listFiles(ctx *rpc.Ctx, c *pvfs.Client) ([]pvfs.Handle, error) {
	var files []pvfs.Handle
	var walk func(dir pvfs.Handle) error
	walk = func(dir pvfs.Handle) error {
		names, err := c.ReadDirH(ctx, dir)
		if err != nil {
			return err
		}
		sort.Strings(names)
		for _, name := range names {
			h, isDir, err := c.LookupH(ctx, dir, name)
			if err != nil {
				return err
			}
			if isDir {
				if err := walk(h); err != nil {
					return err
				}
				continue
			}
			files = append(files, h)
		}
		return nil
	}
	if err := walk(c.RootHandle()); err != nil {
		return nil, err
	}
	return files, nil
}

// sameDist reports whether two distributions place bytes identically.
func sameDist(a, b pvfs.DistParams) bool {
	if a.StripeSize != b.StripeSize {
		return false
	}
	ai, bi := a.ServerIDs(), b.ServerIDs()
	if len(ai) != len(bi) {
		return false
	}
	for i := range ai {
		if ai[i] != bi[i] {
			return false
		}
	}
	return true
}

// migrateFile moves one file onto target: shadow objects are created on the
// target servers, data is copied chunk by chunk (Sync'd, so acknowledged
// bytes are durable under WAL-backed stores), failed chunks are re-issued
// exactly once through the patient client, and only then does the
// placement flip.  A crash mid-copy therefore leaves the old placement
// fully intact.
func (cl *Cluster) migrateFile(ctx *rpc.Ctx, mig, patient *pvfs.Client, h pvfs.Handle, fileIdx int, target pvfs.DistParams) error {
	place := cl.PVFSMeta.PlacementOf(h)
	if sameDist(place.Dist, target) {
		return nil
	}
	shadow, err := cl.PVFSMeta.PrepareMigrate(ctx, h)
	if err != nil {
		return fmt.Errorf("cluster: prepare migrate %x: %w", uint64(h), err)
	}
	src := mig.OpenPlaced(h, place.Data, place.Dist)
	dst := mig.OpenPlaced(h, shadow.Data, shadow.Dist)
	srcP := patient.OpenPlaced(h, place.Data, place.Dist)
	dstP := patient.OpenPlaced(h, shadow.Data, shadow.Dist)
	size, err := patient.GetAttr(ctx, srcP)
	if err != nil {
		return err
	}
	chunk := target.StripeSize * int64(len(target.ServerIDs()))
	if chunk <= 0 {
		chunk = target.StripeSize
	}
	type span struct{ off, n int64 }
	var pending []span
	for off, ci := int64(0), 0; off < size; off, ci = off+chunk, ci+1 {
		n := size - off
		if n > chunk {
			n = chunk
		}
		if hook := cl.migChunkHook; hook != nil {
			hook(fileIdx, ci)
		}
		if err := copySpan(ctx, mig, src, dst, off, n, cl.Cfg.Real); err != nil {
			// First-pass failure (a crashed source node, say): remember the
			// span; the single re-issue pass below retries it patiently.
			pending = append(pending, span{off, n})
			continue
		}
		cl.rebalanceBytes.Add(uint64(n))
	}
	if len(pending) > 0 {
		if hook := cl.migReissueHook; hook != nil {
			hook()
		}
		for _, p := range pending {
			cl.rebalanceReissued.Inc()
			if err := copySpan(ctx, patient, srcP, dstP, p.off, p.n, cl.Cfg.Real); err != nil {
				return fmt.Errorf("cluster: re-issued migration chunk %x@%d: %w", uint64(h), p.off, err)
			}
			cl.rebalanceBytes.Add(uint64(p.n))
		}
	}
	cl.PVFSMeta.CommitMigrate(h, shadow)
	// Trailing holes would shrink the size reconstructed from the new
	// objects; publish the exact logical size onto the new placement.
	if err := patient.Truncate(ctx, dstP, size); err != nil {
		return err
	}
	cl.rebalanceFiles.Inc()
	return nil
}

// copySpan copies [off, off+n) from src to dst through client c, syncing
// the written chunk to stable storage.
func copySpan(ctx *rpc.Ctx, c *pvfs.Client, src, dst *pvfs.File, off, n int64, real bool) error {
	data, got, err := c.Read(ctx, src, off, n, real)
	if err != nil {
		return err
	}
	if got == 0 {
		return nil // a hole: nothing to carry over
	}
	_, err = c.Write(ctx, dst, off, data, true)
	return err
}
