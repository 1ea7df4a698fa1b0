// Background scrub wiring: one scrub.Scrubber per storage member, repairing
// from the node's replica partners when the substrate is replicated
// (DistParams.Copies via distCopies).  Passes run only as faults.Scrub
// events of a scheduled plan, replayed on the run's scrub lane (Schedule,
// Cluster.run) so they are deterministic under seed replay, on either
// transport.  A pass outside a workload is a plan of one Scrub followed by
// Reconcile.  A pass reports through that run: its scan failures join the
// run's error, and its counts are the scrub_*_total counters.

package cluster

import (
	"errors"
	"fmt"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/scrub"
	"dpnfs/internal/stripe"
)

// scrubbers returns the scanners of every member not removed, in build
// order, first building those no pass has reached yet: the members of a
// first pass, and joiners.  A member whose store backend cannot be scanned
// (no Walk/Extents surface; both shipped backends have one) is left out,
// and named in the error.
func (cl *Cluster) scrubbers() ([]*scrub.Scrubber, error) {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	var out []*scrub.Scrubber
	var errs []error
	for dev, m := range cl.members {
		if m.state == memberRemoved {
			continue
		}
		if m.scrub == nil {
			src, ok := m.storage.Store().(scrub.Source)
			if !ok {
				errs = append(errs, fmt.Errorf("scrub %s: store %T cannot be scanned", m.node.Name, m.storage.Store()))
				continue
			}
			m.scrub = cl.newScrubber(dev, m, src)
		}
		out = append(out, m.scrub)
	}
	return out, errors.Join(errs...)
}

// newScrubber builds the scanner of member m, the dev-th built, over its
// store src.
func (cl *Cluster) newScrubber(dev int, m *member, src scrub.Source) *scrub.Scrubber {
	var fetch scrub.Fetch
	if cl.distCopies() > 1 {
		// Only a replicated substrate has anywhere to repair from; an
		// unreplicated scrubber still detects and counts.
		fetch = cl.replicaFetch(dev, m)
	}
	return scrub.New(scrub.Config{
		Node:    m.node.Name,
		Store:   src,
		Fetch:   fetch,
		Metrics: cl.Cfg.Metrics,
	})
}

// replicaFetch builds the repair source for member m, the dev-th storage
// node built (a replicated substrate has no joins or drains, so the
// aggregation's mapper over the storage nodes built is the substrate's
// geometry): good bytes come from the node's replica partners, dialed by
// stable ID through the member table (dialDaemon) like every PVFS2
// component's daemons, through the shared replica rung (ioengine.Replicas —
// every partner holds a byte-identical object at the same offset) and the
// PVFS2 client's verified single-copy read.  The rung only fetches here: the
// scrubber rewrites its own store and verifies it afterwards.  The object's
// name carries its datafile handle, which the metadata server allocated
// identically on every daemon.
func (cl *Cluster) replicaFetch(dev int, m *member) scrub.Fetch {
	node := m.node.Name
	geometry := cl.agg.(*stripe.Replicated)
	return func(ctx *rpc.Ctx, name string, off int64, b []byte) (int, error) {
		h, ok := pvfs.ObjectHandle(name)
		if !ok {
			return 0, fmt.Errorf("scrub %s: store file %q names no datafile handle", node, name)
		}
		partners := ioengine.Replicas[struct{}]{
			Map: geometry,
			Read: func(ctx *rpc.Ctx, alt stripe.Extent, _ bool) (payload.Payload, error) {
				conn := cl.dialDaemon(node, uint32(cl.members[alt.Dev].id), false)
				if conn == nil {
					return payload.Payload{}, fmt.Errorf("scrub %s: no conn to partner %d", node, alt.Dev)
				}
				data, err := pvfs.ReadCopy(ctx, conn, h, alt.DevOff, alt.Len, true)
				if err == nil && data.Bytes == nil {
					err = fmt.Errorf("scrub %s: partner %d returned no bytes", node, alt.Dev)
				}
				return data, err
			},
		}
		good, err := partners.Recover(ctx, stripe.Extent{Dev: dev, DevOff: off, Len: int64(len(b))},
			fmt.Errorf("scrub %s: no live replica for %s @%d", node, name, off))
		if err != nil {
			return 0, err
		}
		n := copy(b, good.Bytes)
		good.Release()
		return n, nil
	}
}

// scrubPass scans every member not removed sequentially, in build order
// (the deterministic order seed replay depends on).  A failed scan does not
// stop the pass over the other members; every failure is in the error.
func (cl *Cluster) scrubPass(ctx *rpc.Ctx) error {
	scrubbers, err := cl.scrubbers()
	errs := []error{err}
	for _, s := range scrubbers {
		errs = append(errs, s.Pass(ctx))
	}
	return errors.Join(errs...)
}
