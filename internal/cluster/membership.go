package cluster

import (
	"fmt"
	"time"

	"dpnfs/internal/faults"
	"dpnfs/internal/ioengine"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/scrub"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/simnet"
)

// memberState tracks a storage node through the elastic-membership
// lifecycle.  A removed member's fabric node and daemon keep existing (the
// simulation has no tear-down), but fault targeting, device lists, scrub
// passes and newly built clients all skip it, and its device ID is never
// reused.
type memberState int

const (
	memberActive memberState = iota
	memberDraining
	memberRemoved
)

// member is one storage node's record: its fabric node, disk and PVFS2
// daemon, its stable pNFS device ID, its membership state, and its
// scrubber, built by the first scrub pass that reaches it (scrub.go).
type member struct {
	node    *simnet.Node
	disk    *simdisk.Disk
	storage *pvfs.StorageServer
	id      pnfs.DeviceID
	state   memberState
	scrub   *scrub.Scrubber
}

// memberNamed returns the named storage node's record, or nil (memberMu
// held).
func (cl *Cluster) memberNamed(name string) *member {
	for _, m := range cl.members {
		if m.node.Name == name {
			return m
		}
	}
	return nil
}

// live returns the named storage node's record unless the node has been
// drained away; nil for a removed member and for any other name.
func (cl *Cluster) live(name string) *member {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	if m := cl.memberNamed(name); m != nil && m.state != memberRemoved {
		return m
	}
	return nil
}

// liveMembers returns the members not removed, in build order.
func (cl *Cluster) liveMembers() []*member {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	var out []*member
	for _, m := range cl.members {
		if m.state != memberRemoved {
			out = append(out, m)
		}
	}
	return out
}

// dialDaemon returns a conn from node from to the storage daemon with stable
// server ID id, or nil when no member has that ID: the member table is where
// every PVFS2 component finds its daemons.  A member drained away answers
// nil too unless removed is set — clients refuse it, while the metadata
// manager still reaches it to remove what its records place there.
func (cl *Cluster) dialDaemon(from string, id uint32, removed bool) rpc.Conn {
	cl.memberMu.Lock()
	var to string
	for _, m := range cl.members {
		if uint32(m.id) == id && (removed || m.state != memberRemoved) {
			to = m.node.Name
		}
	}
	cl.memberMu.Unlock()
	if to == "" {
		return nil
	}
	conn, err := cl.tr.Dial(from, to, pvfs.ServiceIO)
	if err != nil {
		return nil // a closed transport: the client reports the conn missing
	}
	return conn
}

// devices lists, read live from the member table in build order under
// their stable device IDs, the data servers of the members in a state up
// to last: memberActive gives the members that may receive new placements,
// and memberDraining adds the ones being drained, which layouts of files
// not yet moved off them still name — GETDEVICELIST's list.  A list rebuilt
// after a drain keeps every survivor's ID, and a joiner's is new.
func (cl *Cluster) devices(last memberState) []pnfs.DeviceInfo {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	out := make([]pnfs.DeviceInfo, 0, len(cl.members))
	for _, m := range cl.members {
		if m.state <= last {
			out = append(out, pnfs.DeviceInfo{ID: m.id, Addr: m.node.Name})
		}
	}
	return out
}

// activeDist is the distribution that places new files across the active
// members, naming their stable server IDs explicitly.
func (cl *Cluster) activeDist() pvfs.DistParams {
	devs := cl.devices(memberActive)
	ids := make([]uint32, len(devs))
	for i, d := range devs {
		ids[i] = uint32(d.ID)
	}
	return pvfs.DistParams{StripeSize: cl.Cfg.StripeSize, Servers: ids}
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

// admit checks one event against the membership and the queue it joins
// (memberMu held).  Faults and scrub passes are always admitted.  A join or
// a drain needs membershipSupported, a join a node name the fabric has
// never had (a drained node stays on it, so its device ID is never
// reused), a drain a member not yet removed other than the metadata
// manager (draining one whose rebalance failed resumes it), and neither may
// target a node that already has a membership event queued.
func (cl *Cluster) admit(ev faults.Event) error {
	if laneOf(ev) != memberLane {
		return nil
	}
	if err := cl.membershipSupported(); err != nil {
		return err
	}
	name := ev.Target()
	if _, join := ev.(faults.Join); join {
		if cl.Fabric.Lookup(name) != nil {
			return fmt.Errorf("cluster: node %q already exists", name)
		}
	} else {
		m := cl.memberNamed(name)
		if m == nil {
			return fmt.Errorf("cluster: %q is not a storage member", name)
		}
		if m.state == memberRemoved {
			return fmt.Errorf("cluster: %q was already drained", name)
		}
		if m.node == cl.mdsNode {
			return fmt.Errorf("cluster: cannot drain %q: it doubles as the metadata manager", name)
		}
	}
	for _, q := range cl.schedule.Events {
		if laneOf(q) == memberLane && q.Target() == name {
			return fmt.Errorf("cluster: node %q already has a pending membership operation", name)
		}
	}
	return nil
}

// Reconcile replays the scheduled events (Schedule) immediately, in a run
// of its own with no application workload, and returns every failure of a
// join, drain or scrub pass that they met.
func (cl *Cluster) Reconcile() error {
	_, err := cl.run(nil, nil)
	return err
}

// MigrationWindow returns the virtual-time window of the most recent
// rebalance (both zero when none ran).
func (cl *Cluster) MigrationWindow() (start, end time.Duration) {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	return cl.migStart, cl.migEnd
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

// applyJoin brings a brand-new storage node into the cluster: substrate
// (disk, object store, daemon), the architecture's pNFS surface, a new
// default distribution, and a background rebalance that spreads existing
// files over the widened stripe.  The metadata manager and the client
// libraries find the new daemon in the member table when a placement first
// names it.
func (cl *Cluster) applyJoin(ctx *rpc.Ctx, name string) error {
	m := cl.addStorageSubstrate(cl.Fabric.AddNode(simnet.NodeConfig{Name: name, BytesPerSec: cl.Cfg.NetBPS}))
	cl.updateMemberGauges()
	// Architecture surface: Direct-pNFS gets an NFS data server co-located
	// with the new daemon; the 2-tier export gets a blind data server
	// re-exporting through a fresh client library.  The 3-tier and NFSv4
	// front ends are untouched — only the parallel FS underneath widened.
	switch cl.Cfg.Arch {
	case ArchDirectPNFS:
		cl.directDSOn(m)
	case ArchPNFS2Tier:
		cl.exportDSOn(m.node)
	}
	if err := cl.rebalance(ctx, cl.activeDist()); err != nil {
		return fmt.Errorf("cluster: rebalance after join of %s: %w", name, err)
	}
	return nil
}

// applyDrain marks the node read-only for placement, migrates its data to
// the remaining members, and removes it from membership.  A drain whose
// rebalance failed leaves the node draining, and draining it again resumes
// the rebalance.
func (cl *Cluster) applyDrain(ctx *rpc.Ctx, name string) error {
	cl.memberMu.Lock()
	m := cl.memberNamed(name)
	if m == nil || m.state == memberRemoved || m.node == cl.mdsNode {
		cl.memberMu.Unlock()
		return fmt.Errorf("cluster: cannot drain %q", name)
	}
	m.state = memberDraining
	cl.memberMu.Unlock()
	cl.updateMemberGauges()
	// The metadata manager is never drained: a member stays active.
	if err := cl.rebalance(ctx, cl.activeDist()); err != nil {
		return fmt.Errorf("cluster: rebalance draining %s: %w", name, err)
	}
	// All data is off the node: remove it from membership.  Fault events
	// aimed at it become counted no-ops from here on.
	cl.memberMu.Lock()
	m.state = memberRemoved
	cl.memberMu.Unlock()
	cl.updateMemberGauges()
	return nil
}

// rebalance moves every file onto target through the metadata manager's
// migration (pvfs.MetaServer.Rebalance), which also makes target the
// default distribution.  The cluster supplies the copier — one
// Background-class PVFS2 client library on the metadata node, which keeps
// migration inside the engines' BackgroundShare window slots, protecting
// foreground latency — times the migration window, and counts what the
// pass moved, a failed pass's partial totals too.
func (cl *Cluster) rebalance(ctx *rpc.Ctx, target pvfs.DistParams) error {
	cl.memberMu.Lock()
	cl.migStart = time.Duration(cl.K.Now())
	cl.memberMu.Unlock()
	mig := cl.pvfsClientWith(cl.mdsNode, ioengine.Background, "rebalance")
	files, bytes, err := cl.PVFSMeta.Rebalance(ctx, mig, target, cl.Cfg.Real)
	cl.rebalanceFiles.Add(uint64(files))
	cl.rebalanceBytes.Add(uint64(bytes))
	cl.memberMu.Lock()
	cl.migEnd = time.Duration(cl.K.Now())
	cl.memberMu.Unlock()
	return err
}
