package cluster

import (
	"fmt"

	"dpnfs/internal/metrics"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/store/wal"
)

// Backend kinds accepted by Config.Backend and dpnfs-serve -backend.
// docs/BACKENDS.md describes the trade-offs.
const (
	// BackendMem is the default: purely volatile in-memory stores, the
	// pre-durability behaviour every figure is calibrated against.
	BackendMem = "mem"
	// BackendWAL journals every mutation to the node's simulated disk
	// before acknowledging; crash events lose nothing that was synced.
	BackendWAL = "wal"
)

// StoreFactory builds one server's store.  node names the server for
// metrics ("io0", "mds", ...), disk is the node's simulated disk (nil on
// diskless nodes and in TCP mode charging terms), and reg is the cluster
// registry.
type StoreFactory func(node string, disk *simdisk.Disk, reg *metrics.Registry) store.Store

// BackendFactory maps a backend kind to its store factory.
func BackendFactory(kind string) (StoreFactory, error) {
	switch kind {
	case "", BackendMem:
		return func(node string, disk *simdisk.Disk, reg *metrics.Registry) store.Store {
			return mem.New()
		}, nil
	case BackendWAL:
		return func(node string, disk *simdisk.Disk, reg *metrics.Registry) store.Store {
			return wal.New(wal.Config{Name: node, Disk: disk, Metrics: reg})
		}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown backend %q (want %s or %s)", kind, BackendMem, BackendWAL)
	}
}

// CrashVolatile implements faults.Target: the crashing node's storage
// daemon loses its volatile state, which is all in its store's image.
// Under the default mem backend the store is not store.Recoverable and the
// daemon keeps its image — the original reboot-with-state-intact model;
// under wal everything unsynced is gone until RestartVolatile.
func (cl *Cluster) CrashVolatile(node string) {
	if rec := cl.recoverable(node); rec != nil {
		rec.Crash()
	}
}

// CorruptData implements faults.Target: flips one stored byte on the node's
// store, deterministically from seed, without resealing its block checksum.
func (cl *Cluster) CorruptData(node string, seed int64) {
	cl.corrupt("bit-rot", node, func(s store.Store) bool {
		c, ok := s.(store.Corruptible)
		return ok && c.CorruptChunk(seed)
	})
}

// MisdirectRead implements faults.Target: arms a one-shot wrong-block read
// on the node's store.
func (cl *Cluster) MisdirectRead(node string, seed int64) {
	cl.corrupt("misdirected-read", node, func(s store.Store) bool {
		c, ok := s.(store.Corruptible)
		return ok && c.MisdirectNextRead(seed)
	})
}

// ArmTornWrite implements faults.Target: the node's next crash persists only
// a prefix of its final journal record.
func (cl *Cluster) ArmTornWrite(node string) {
	cl.corrupt("torn-write", node, func(s store.Store) bool {
		tw, ok := s.(store.TornWriter)
		if ok {
			tw.ArmTornWrite()
		}
		return ok
	})
}

// corrupt applies one corruption hook to the node's store.  Untargetable
// nodes, stores without the hook (non-journaling backends have no torn
// writes) and stores with nothing materialized to damage (synthetic
// payloads, empty stores) are counted no-ops, like any untargetable fault.
func (cl *Cluster) corrupt(kind, node string, hook func(store.Store) bool) {
	if !cl.faultTargetable(kind, node) {
		return
	}
	if m := cl.live(node); m == nil || !hook(m.storage.Store()) {
		cl.skippedFaults.With(kind, node).Inc()
	}
}

// RestartVolatile implements faults.Target: replays the node's durable log
// into a fresh image before the node rejoins.  Replay time is deliberately
// not charged to the simulation — recovery happens inside the outage window
// the fault plan already models.  A replay failure is a corrupt log, which
// is a bug, so it fails loudly.
func (cl *Cluster) RestartVolatile(node string) {
	if rec := cl.recoverable(node); rec != nil {
		if _, err := rec.Recover(); err != nil {
			panic(fmt.Sprintf("cluster: recover %s: %v", node, err))
		}
	}
}

// recoverable returns the store of the live node's storage daemon when it
// can crash and recover (store.Recoverable), else nil.
func (cl *Cluster) recoverable(node string) store.Recoverable {
	if m := cl.live(node); m != nil {
		rec, _ := m.storage.Store().(store.Recoverable)
		return rec
	}
	return nil
}
