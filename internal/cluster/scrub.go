// Background scrub wiring: one scrub.Scrubber per storage member, repairing
// from the node's replica partners when the substrate is replicated
// (DistParams.Copies via distCopies).  Passes run only as faults.Scrub
// events of a scheduled plan, replayed on the run's scrub lane (Schedule,
// runSubsetInner) so they are deterministic under seed replay, on either
// transport.  A pass outside a workload is a plan of one Scrub followed by
// Reconcile.

package cluster

import (
	"fmt"
	"time"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/scrub"
	"dpnfs/internal/store"
	"dpnfs/internal/stripe"
)

// ScrubOutcome records one node's pass within one scheduled scrub: when it
// ran (the event's offset into its run), what it found, and whether the
// scan itself failed.
type ScrubOutcome struct {
	Node   string
	At     time.Duration
	Result scrub.Result
	Err    error
}

// scrubbers returns the scanners of every member not removed, in build
// order, first building those no pass has reached yet: the members of a
// first pass, and joiners.  Members whose store backend cannot be scanned
// (no Walk/Extents surface) are skipped; both shipped backends qualify.
func (cl *Cluster) scrubbers() []*scrub.Scrubber {
	cl.memberMu.Lock()
	defer cl.memberMu.Unlock()
	var out []*scrub.Scrubber
	for dev, m := range cl.members {
		if m.state == memberRemoved {
			continue
		}
		if m.scrub == nil {
			m.scrub = cl.newScrubber(dev, m)
		}
		if m.scrub != nil {
			out = append(out, m.scrub)
		}
	}
	return out
}

// newScrubber builds the scanner of member m, the dev-th built; nil if its
// store cannot be scanned.
func (cl *Cluster) newScrubber(dev int, m *member) *scrub.Scrubber {
	src, ok := m.storage.Store().(scrub.Source)
	if !ok {
		return nil
	}
	var fetch scrub.Fetch
	if copies := int(cl.distCopies()); copies > 1 {
		// Only a replicated substrate has anywhere to repair from; an
		// unreplicated scrubber still detects and counts.
		fetch = cl.replicaFetch(dev, copies, m)
	}
	return scrub.New(scrub.Config{
		Node:    m.node.Name,
		Store:   src,
		Fetch:   fetch,
		Metrics: cl.Cfg.Metrics,
	})
}

// replicaFetch builds the repair source for member m, the dev-th storage
// node built (a replicated substrate has no joins or drains): good bytes
// come from the node's replica partners through the shared replica rung
// (ioengine.Replicas over the substrate's stripe.Replicated geometry — every
// partner holds a byte-identical object at the same offset) and the PVFS2
// client's verified single-copy read.  The rung only fetches here: the
// scrubber rewrites its own store and verifies it afterwards.  The store
// file is reverse-mapped to its datafile handle, which the metadata server
// allocated identically on every daemon.
func (cl *Cluster) replicaFetch(dev, copies int, m *member) scrub.Fetch {
	node := m.node.Name
	geometry := stripe.NewReplicated(stripe.NewRoundRobin(1, len(cl.members)/copies), copies)
	conns := make(map[int]rpc.Conn)
	return func(ctx *rpc.Ctx, id store.FileID, off int64, b []byte) (int, error) {
		h, ok := m.storage.HandleFor(id)
		if !ok {
			return 0, fmt.Errorf("scrub %s: store file %d has no datafile handle", node, id)
		}
		partners := ioengine.Replicas[struct{}]{
			Map: geometry,
			Read: func(ctx *rpc.Ctx, alt stripe.Extent, _ bool) (payload.Payload, error) {
				conn := conns[alt.Dev]
				if conn == nil {
					conn = cl.dial(node, cl.members[alt.Dev].node.Name, pvfs.ServiceIO)
					conns[alt.Dev] = conn
				}
				data, err := pvfs.ReadCopy(ctx, conn, h, alt.DevOff, alt.Len, true)
				if err == nil && data.Bytes == nil {
					err = fmt.Errorf("scrub %s: partner %d returned no bytes", node, alt.Dev)
				}
				return data, err
			},
		}
		good, err := partners.Recover(ctx, stripe.Extent{Dev: dev, DevOff: off, Len: int64(len(b))},
			fmt.Errorf("scrub %s: no live replica for file %d @%d", node, id, off))
		if err != nil {
			return 0, err
		}
		n := copy(b, good.Bytes)
		good.Release()
		return n, nil
	}
}

// scrubPassCtx scans every member not removed sequentially, in build order
// (the deterministic order seed replay depends on), and records the
// outcomes.
func (cl *Cluster) scrubPassCtx(ctx *rpc.Ctx, at time.Duration) {
	var outs []ScrubOutcome
	for _, s := range cl.scrubbers() {
		res, err := s.Pass(ctx)
		outs = append(outs, ScrubOutcome{Node: s.Node(), At: at, Result: res, Err: err})
	}
	cl.scrubMu.Lock()
	cl.scrubResults = append(cl.scrubResults, outs...)
	cl.scrubMu.Unlock()
}

// ScrubResults returns every recorded pass outcome, oldest first.
func (cl *Cluster) ScrubResults() []ScrubOutcome {
	cl.scrubMu.Lock()
	defer cl.scrubMu.Unlock()
	return append([]ScrubOutcome(nil), cl.scrubResults...)
}
