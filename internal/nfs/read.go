package nfs

import (
	"dpnfs/internal/ioengine"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/stripe"
)

type raFlight struct {
	ext  extent
	done bool
	wg   rpc.Group
}

// Read returns up to n bytes at off, serving from the page cache, fetching
// RSize-rounded chunks on miss, and prefetching ahead on sequential access.
// The payload is a read-only snapshot, usually a view of the cache's own
// memory (pageCache.slice): the caller must not modify its bytes and should
// Release it when done, which is what lets the underlying buffer be reused.
func (c *Client) Read(ctx *rpc.Ctx, f *File, off, n int64) (payload.Payload, int64, error) {
	c.chargeCache(ctx, n)
	if off >= f.size {
		return payload.Synthetic(0), 0, nil
	}
	if off+n > f.size {
		n = f.size - off
	}
	// Wait for overlapping in-flight prefetches rather than re-fetching.
	for _, fl := range f.inflight {
		if !fl.done && fl.ext.Off < off+n && off < fl.ext.End {
			fl.wg.Wait(ctx)
		}
	}
	// Fetch what is still missing, rounded out to RSize chunks.
	missing := f.cache.missingResident(off, off+n)
	var chunks []extent
	for _, gap := range missing {
		lo := gap.Off / c.cfg.RSize * c.cfg.RSize
		hi := (gap.End + c.cfg.RSize - 1) / c.cfg.RSize * c.cfg.RSize
		if hi > f.size {
			hi = f.size
		}
		chunks = append(chunks, f.cache.missingResident(lo, hi)...)
	}
	if len(chunks) == 0 {
		c.pcHits.Inc()
	} else {
		c.pcMisses.Inc()
	}
	// One engine run covers every missing chunk, so extents from adjacent
	// chunks that land contiguously on one device coalesce into fewer,
	// larger READs.  The application is blocked on these bytes: they ride
	// the window as Foreground and may hedge against stragglers.
	if err := c.readChunks(ctx, f, chunks, ioengine.RunOpts{Class: ioengine.Foreground, Hedge: true}); err != nil {
		return payload.Payload{}, 0, err
	}
	// Sequential readahead: extend the window while the pattern holds.
	// Simulated-only on purpose: f.inflight and raFlight.done are unlocked,
	// and prefetching over TCP changes measured behaviour (ROADMAP lead (c)).
	if c.cfg.MaxReadAhead > 0 && ctx.P != nil {
		if off == f.seqEnd {
			f.raWindow *= 2
			if f.raWindow < c.cfg.RSize {
				f.raWindow = c.cfg.RSize
			}
			if f.raWindow > c.cfg.MaxReadAhead {
				f.raWindow = c.cfg.MaxReadAhead
			}
			c.prefetch(ctx, f, off+n, f.raWindow)
		} else {
			f.raWindow = 0
		}
	}
	f.seqEnd = off + n
	return f.cache.slice(off, n), n, nil
}

// prefetch advances the readahead frontier toward start+window, issuing
// whole RSize chunks asynchronously.  The frontier keeps successive small
// sequential reads from each spawning a sliver fetch.
func (c *Client) prefetch(ctx *rpc.Ctx, f *File, start, window int64) {
	end := start + window
	if end > f.size {
		end = f.size
	}
	if f.raFrontier < start {
		f.raFrontier = start
	}
	for f.raFrontier < end {
		chunkEnd := f.raFrontier + c.cfg.RSize
		if chunkEnd > f.size {
			chunkEnd = f.size
		}
		if chunkEnd < end && chunkEnd-f.raFrontier < c.cfg.RSize {
			break // only issue whole chunks unless finishing the file
		}
		if chunkEnd > end && chunkEnd < f.size {
			break // window does not yet cover a whole chunk
		}
		for _, gap := range f.cache.missingResident(f.raFrontier, chunkEnd) {
			c.raChunks.Inc()
			fl := &raFlight{ext: gap}
			fl.wg.Add(ctx, 1)
			f.inflight = append(f.inflight, fl)
			ctx.Go(c.cfg.Name+"/readahead", func(ctx *rpc.Ctx) {
				defer func() {
					fl.done = true
					fl.wg.Done(ctx)
				}()
				if err := c.readRange(ctx, f, fl.ext); err != nil {
					f.setAsyncErr(err)
				}
			})
		}
		f.raFrontier = chunkEnd
	}
	// Drop completed flights.
	live := f.inflight[:0]
	for _, fl := range f.inflight {
		if !fl.done {
			live = append(live, fl)
		}
	}
	f.inflight = live
}

// readRange fetches one chunk into the cache (the readahead entry point).
// Readahead is speculative: it rides the window as Background and never
// hedges.
func (c *Client) readRange(ctx *rpc.Ctx, f *File, chunk extent) error {
	return c.readChunks(ctx, f, []extent{chunk}, ioengine.RunOpts{Class: ioengine.Background})
}

// readChunks fetches a set of RSize chunks into the cache in one engine
// run: striped across data servers under a layout, or from the MDS
// otherwise.  A striped extent's read ladder composes the rungs tabulated in
// docs/FAULTS.md "Recovery paths per architecture", in this order: bounded
// same-source re-reads of a checksum mismatch, then (replicated layouts
// only) the replica rung, then the layout re-drive the write ladder shares,
// then the MDS proxy.  Replicated reads are also steered to the least-loaded
// replica before issue.
func (c *Client) readChunks(ctx *rpc.Ctx, f *File, chunks []extent, opts ioengine.RunOpts) error {
	if len(chunks) == 0 {
		return nil
	}
	if err := f.ensureLayout(ctx); err != nil {
		return err
	}
	want := c.cfg.Real
	read := func(ctx *rpc.Ctx, l *pnfs.FileLayout, e stripe.Extent) error {
		data, err := c.readExtent(ctx, f, l, e, want)
		if err != nil {
			return err
		}
		f.cache.fill(e.Off, data)
		return nil
	}
	layout := f.layout
	if layout == nil {
		// No layout: every chunk is one MDS pseudo-extent (Dev -1).
		reqs := make([]stripe.Extent, len(chunks))
		for i, ch := range chunks {
			reqs[i] = stripe.Extent{Dev: -1, Off: ch.Off, Len: ch.len()}
		}
		return c.engine.RunWith(ctx, opts, reqs,
			func(ctx *rpc.Ctx, e stripe.Extent) error { return read(ctx, layout, e) })
	}
	var extents []stripe.Extent
	for _, ch := range chunks {
		extents = append(extents, f.mapper.ReadMap(ch.Off, ch.len(), ch.Off/c.cfg.RSize)...)
	}
	rm, replicated := f.mapper.(*stripe.Replicated)
	if replicated {
		// Steer each extent to its least-loaded replica device before issue.
		extents = c.engine.SteerReplicas(rm, extents)
	}
	primary := func(ctx *rpc.Ctx, e stripe.Extent) error {
		err := read(ctx, layout, e)
		// A checksum mismatch gets a bounded number of same-source re-reads
		// before the failure ladder engages: a misdirected read is one-shot,
		// so the next read of the same block is clean, while persistent rot
		// escalates to the replica rung below (rpc.IntegrityRetries).
		for attempt := 0; rpc.RetryableIntegrity(err); attempt++ {
			c.corruptReads.Inc()
			if attempt >= rpc.IntegrityRetries {
				break
			}
			err = read(ctx, layout, e)
		}
		return err
	}
	recovery := c.recoveryRung(f, layout,
		func(m stripe.Mapper, e stripe.Extent) []stripe.Extent {
			return m.ReadMap(e.Off, e.Len, e.Off/c.cfg.RSize)
		},
		read, nil)
	mdsProxy := ioengine.WithFallback(func(ctx *rpc.Ctx, e stripe.Extent, _ error) error {
		c.mdsFallbacks.Inc()
		e.Dev = -1
		return read(ctx, layout, e)
	})
	policies := []ioengine.Policy{mdsProxy, recovery}
	if replicated {
		// Innermost rung: before evicting the layout, read the extent from
		// another replica device — every replica holds the same stripe
		// object, so only Dev changes.  The liveness filter keeps the rung
		// off devices that have left the cluster.
		replicas := ioengine.Replicas[repairKey]{
			Map: rm,
			Live: func(dev int) bool {
				return dev >= 0 && dev < len(layout.Devices) && c.deviceActive(layout.Devices[dev])
			},
			Read: func(ctx *rpc.Ctx, alt stripe.Extent, real bool) (payload.Payload, error) {
				return c.readExtent(ctx, f, layout, alt, want || real)
			},
			Rewrite: func(ctx *rpc.Ctx, bad stripe.Extent, good payload.Payload) error {
				return c.writeExtent(ctx, f, layout, bad, good)
			},
			Ledger:   &c.repaired,
			Key:      func(bad stripe.Extent) repairKey { return repairKey{f.fh, bad.Dev, bad.DevOff} },
			Repaired: c.readRepairs,
		}
		policies = append(policies, replicas.Policy(func(e stripe.Extent, good payload.Payload) {
			f.cache.fill(e.Off, good)
		}))
	}
	return c.engine.RunWith(ctx, opts, c.engine.Prepare(extents), primary, policies...)
}

// readExtent reads one extent from the server that holds it under layout l.
func (c *Client) readExtent(ctx *rpc.Ctx, f *File, l *pnfs.FileLayout, e stripe.Extent, want bool) (payload.Payload, error) {
	rep, err := c.extentCall(ctx, f, l, e, func(off int64) Op {
		return &OpRead{StateID: f.stateID, Off: off, Len: e.Len, WantReal: want}
	})
	if err != nil {
		return payload.Payload{}, err
	}
	return rep.Results[1].(*ResRead).Data, nil
}
