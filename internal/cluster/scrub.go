// Background scrub wiring: one scrub.Scrubber per storage node, repairing
// from the node's replica partners when the substrate is replicated
// (DistParams.Copies via distCopies).  Passes run either synchronously
// (ScrubPass, for tests and operator tooling) or as faults.Scrub events of
// a scheduled plan, replayed on the run's scrub lane (Schedule,
// runSubsetInner) so they are deterministic under seed replay.  Both run on
// either transport.

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

// ScrubOutcome records one node's pass within one scheduled or synchronous
// scrub: when it ran (offset into the run for scheduled passes, zero for
// synchronous ones), what it found, and whether the scan itself failed.
type ScrubOutcome struct {
	Node   string
	At     time.Duration
	Result scrub.Result
	Err    error
}

// Scrubbers returns the per-node scanners, building them on first use.
// Nodes whose store backend cannot be scanned (no Walk/Extents surface) are
// skipped; both shipped backends qualify.
func (cl *Cluster) Scrubbers() []*scrub.Scrubber {
	cl.scrubOnce.Do(cl.buildScrubbers)
	return cl.scrubbers
}

func (cl *Cluster) buildScrubbers() {
	copies := int(cl.distCopies(len(cl.storageNodes)))
	for i, n := range cl.storageNodes {
		ss := cl.storageByNode[n.Name]
		src, ok := ss.Store().(scrub.Source)
		if !ok {
			continue
		}
		var fetch scrub.Fetch
		if copies > 1 {
			// Only a replicated substrate has anywhere to repair from; an
			// unreplicated scrubber still detects and counts.
			fetch = cl.replicaFetch(i, copies, ss)
		}
		cl.scrubbers = append(cl.scrubbers, scrub.New(scrub.Config{
			Node:    n.Name,
			Store:   src,
			Fetch:   fetch,
			RateBPS: cl.Cfg.ScrubRateBPS,
			Metrics: cl.Cfg.Metrics,
		}))
	}
}

// replicaFetch builds the repair source for storage node dev: good bytes
// come from the node's replica partners through the shared replica rung
// (ioengine.Replicas over the substrate's stripe.Replicated geometry — every
// partner holds a byte-identical object at the same offset) and the PVFS2
// client's verified single-copy read.  The rung only fetches here: the
// scrubber rewrites its own store and verifies it afterwards.  The store
// file is reverse-mapped to its datafile handle, which the metadata server
// allocated identically on every daemon.
func (cl *Cluster) replicaFetch(dev, copies int, ss *pvfs.StorageServer) scrub.Fetch {
	node := cl.storageNodes[dev].Name
	geometry := stripe.NewReplicated(stripe.NewRoundRobin(1, len(cl.storageNodes)/copies), copies)
	conns := make(map[int]rpc.Conn)
	return func(ctx *rpc.Ctx, id store.FileID, off int64, b []byte) (int, error) {
		h, ok := ss.HandleFor(id)
		if !ok {
			return 0, fmt.Errorf("scrub %s: store file %d has no datafile handle", node, id)
		}
		partners := ioengine.Replicas[struct{}]{
			Map: geometry,
			Read: func(ctx *rpc.Ctx, alt stripe.Extent, _ bool) (payload.Payload, error) {
				conn := conns[alt.Dev]
				if conn == nil {
					conn = cl.dial(node, cl.storageNodes[alt.Dev].Name, pvfs.ServiceIO)
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

// ScrubPass runs one synchronous full-cluster pass (every node, in node
// order) as its own flow — on the fabric a kernel process, so pacing and
// background scheduling charge virtual time — and returns the per-node
// outcomes.  The returned error is the first scan failure, if any —
// corruption found and repaired is a result, not an error.
func (cl *Cluster) ScrubPass() ([]ScrubOutcome, error) {
	var outs []ScrubOutcome
	flows := cl.flows()
	flows.Go("scrub-pass", func(ctx *rpc.Ctx) { outs = cl.scrubPassCtx(ctx, 0) })
	if err := flows.Wait(); err != nil {
		return nil, err
	}
	for _, o := range outs {
		if o.Err != nil {
			return outs, o.Err
		}
	}
	return outs, nil
}

// scrubPassCtx scans every node sequentially (the deterministic order seed
// replay depends on) and records the outcomes.
func (cl *Cluster) scrubPassCtx(ctx *rpc.Ctx, at time.Duration) []ScrubOutcome {
	var outs []ScrubOutcome
	for _, s := range cl.Scrubbers() {
		res, err := s.Pass(ctx)
		outs = append(outs, ScrubOutcome{Node: s.Node(), At: at, Result: res, Err: err})
	}
	cl.scrubMu.Lock()
	cl.scrubResults = append(cl.scrubResults, outs...)
	cl.scrubMu.Unlock()
	return outs
}

// ScrubResults returns every recorded pass outcome, oldest first.
func (cl *Cluster) ScrubResults() []ScrubOutcome {
	cl.scrubMu.Lock()
	defer cl.scrubMu.Unlock()
	return append([]ScrubOutcome(nil), cl.scrubResults...)
}
