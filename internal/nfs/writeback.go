package nfs

import (
	"sort"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/stripe"
)

// Write buffers data at off in the page cache and asynchronously flushes
// full WSize runs (the write gathering that keeps small-block workloads at
// large-block speed, Figures 6d/6e).
func (c *Client) Write(ctx *rpc.Ctx, f *File, off int64, data payload.Payload) error {
	c.chargeCache(ctx, data.Len())
	f.cache.write(off, data)
	if end := off + data.Len(); end > f.size {
		f.size = end
	}
	for {
		run, ok := f.cache.dirtyRunAtLeast(c.cfg.WSize)
		if !ok {
			break
		}
		chunk := extent{run.Off, run.Off + c.cfg.WSize}
		f.cache.clean(chunk.Off, chunk.End)
		c.flushAsync(ctx, f, chunk)
	}
	return nil
}

// wbChunk is one gathered dirty run awaiting write-back: the owning file,
// its logical offset, a snapshot of the cache content (a view of the cached
// segment when the run lies inside one, so later overwrites cannot change
// what is sent).  Its owner's Fsync waits on f.pending until it is drained.
type wbChunk struct {
	f    *File
	off  int64
	data payload.Payload
}

// flushAsync queues one chunk for write-back and spawns a drain flow that
// takes *every* queued chunk, across all files, and issues them as a single
// coalesced engine run.  Flows are bounded by flushParallel; a flow that
// finds the queue already drained by a sibling exits immediately.  Failures
// surface through the owning file's setAsyncErr for its next Fsync.
func (c *Client) flushAsync(ctx *rpc.Ctx, f *File, chunk extent) {
	wb := wbChunk{f: f, off: chunk.Off, data: f.cache.slice(chunk.Off, chunk.len())}
	f.pending.Add(ctx, 1)
	c.wbMu.Lock()
	c.wbQueue = append(c.wbQueue, wb)
	c.wbMu.Unlock()
	ctx.Go(c.flushProc, func(ctx *rpc.Ctx) {
		c.flushSlots.Acquire(ctx)
		defer c.flushSlots.Release(ctx)
		c.drainWriteBack(ctx)
	})
}

// drainWriteBack empties the write-back queue and sends everything in one
// engine window: each chunk's extents are coalesced against themselves
// (extents carry no owner tag, so cross-file runs must never merge) and the
// per-chunk lists are concatenated into a single RunIndexed.  A failing
// extent is recorded on its owning file and absorbed, so one file's error
// cannot starve another file's flush.  Chunk payloads are released once the
// batch completes.
func (c *Client) drainWriteBack(ctx *rpc.Ctx) {
	c.wbMu.Lock()
	chunks := c.wbQueue
	c.wbQueue = nil
	c.wbMu.Unlock()
	if len(chunks) == 0 {
		return
	}
	var reqs []stripe.Extent
	var fns []ioengine.DoFunc
	var owners []*File
	for _, wb := range chunks {
		f, data := wb.f, wb.data
		if err := f.ensureLayout(ctx); err != nil {
			f.setAsyncErr(err)
			continue
		}
		// No layout: the whole chunk goes through the MDS as one
		// pseudo-extent (Dev -1, the engine's MDS marker).
		exts := []stripe.Extent{{Dev: -1, Off: wb.off, Len: data.Len()}}
		if f.mapper != nil {
			exts = c.engine.Prepare(f.mapper.Map(wb.off, data.Len()))
		}
		fn := c.chunkLadder(f, wb.off, data)
		for _, e := range exts {
			reqs = append(reqs, e)
			fns = append(fns, fn)
			owners = append(owners, f)
		}
	}
	if len(reqs) > 0 {
		// Write-back rides the window as Background: gathered flushes must
		// never crowd out a blocked application read (docs/ARCHITECTURE.md
		// QoS).  Per-extent errors were already absorbed onto their owners,
		// so the run itself cannot fail.
		_ = c.engine.RunIndexed(ctx, ioengine.RunOpts{Class: ioengine.Background}, reqs,
			func(ctx *rpc.Ctx, i int, r stripe.Extent) error {
				if err := fns[i](ctx, r); err != nil {
					owners[i].setAsyncErr(err)
				}
				return nil
			})
	}
	for _, wb := range chunks {
		wb.data.Release()
		wb.f.pending.Done(ctx)
	}
}

// chunkLadder builds the per-extent dispatch for one gathered chunk.  Without
// a layout that is the write itself — the MDS is the only server.  Under a
// pNFS layout the striped write sits behind a two-rung policy ladder: a
// device error evicts the cached layout, re-drives GETDEVICELIST +
// LAYOUTGET, and retries once against the fresh layout (the recalled-layout
// path, paper §4); extents that still cannot reach a data server are proxied
// through the metadata server, which writes into the parallel file system on
// the client's behalf.
func (c *Client) chunkLadder(f *File, off int64, data payload.Payload) ioengine.DoFunc {
	layout := f.layout
	write := func(ctx *rpc.Ctx, l *pnfs.FileLayout, e stripe.Extent) error {
		return c.writeExtent(ctx, f, l, e, data.Slice(e.Off-off, e.Len))
	}
	primary := func(ctx *rpc.Ctx, e stripe.Extent) error {
		err := write(ctx, layout, e)
		if err == nil {
			f.markTouched(e.Dev)
		}
		return err
	}
	if layout == nil {
		return primary
	}
	// A retry that had to remap commits through the MDS (settled(-1)): the
	// touched-device indices no longer line up with the fresh geometry.
	recovery := c.recoveryRung(f, layout,
		func(m stripe.Mapper, e stripe.Extent) []stripe.Extent { return m.Map(e.Off, e.Len) },
		write, f.markTouched)
	mdsProxy := ioengine.WithFallback(func(ctx *rpc.Ctx, e stripe.Extent, _ error) error {
		c.mdsFallbacks.Inc()
		e.Dev = -1
		return primary(ctx, e)
	})
	// Same composition order RunWith would apply to (primary, mdsProxy,
	// recovery): try the layout's data server, recover the layout on error,
	// and proxy through the MDS as the last rung.
	return mdsProxy(recovery(primary))
}

// writeExtent writes one extent to the server that holds it under layout l.
func (c *Client) writeExtent(ctx *rpc.Ctx, f *File, l *pnfs.FileLayout, e stripe.Extent, chunk payload.Payload) error {
	_, err := c.extentCall(ctx, f, l, e, func(off int64) Op {
		return &OpWrite{StateID: f.stateID, Off: off, Data: chunk}
	})
	return err
}

// Fsync flushes all dirty data, commits unstable writes on every touched
// server, and publishes metadata via LAYOUTCOMMIT — the paper's prototype
// semantics: data reaches stable storage on fsync/close only (§5).
func (c *Client) Fsync(ctx *rpc.Ctx, f *File) error {
	c.chargeOp(ctx, 1, 0)
	// Flush every remaining dirty run, WSize bytes at a time.
	for {
		run, ok := f.cache.firstDirty()
		if !ok {
			break
		}
		end := run.End
		if end > run.Off+c.cfg.WSize {
			end = run.Off + c.cfg.WSize
		}
		f.cache.clean(run.Off, end)
		c.flushAsync(ctx, f, extent{run.Off, end})
	}
	f.pending.Wait(ctx)
	if err := f.takeAsyncErr(); err != nil {
		return err
	}
	// COMMIT on every server that took unstable writes.  The commit fan-out
	// rides the engine too (sorted for a deterministic issue order).
	f.pendMu.Lock()
	devs := make([]int, 0, len(f.touched))
	for dev := range f.touched {
		devs = append(devs, dev)
	}
	f.touched = make(map[int]bool)
	f.pendMu.Unlock()
	sort.Ints(devs)
	commits := make([]stripe.Extent, len(devs))
	for i, dev := range devs {
		// Dev < 0 is the MDS marker.  An out-of-range or unknown device (the
		// layout was regenerated under a new membership between the write
		// and this commit) is the MDS's to commit the same way.
		if dev >= 0 && (dev >= len(f.layout.Devices) || c.device(f.layout.Devices[dev]) == nil) {
			dev = -1
		}
		commits[i] = stripe.Extent{Dev: dev}
	}
	commit := func(ctx *rpc.Ctx, r stripe.Extent) error {
		_, err := c.extentCall(ctx, f, f.layout, r, func(int64) Op { return &OpCommit{} })
		return err
	}
	// Crashed data server: commit through the MDS instead, which flushes the
	// parallel FS daemons on the client's behalf.  A commit that was the
	// MDS's to begin with has no further rung.
	viaMDS := ioengine.WithFallback(func(ctx *rpc.Ctx, r stripe.Extent, err error) error {
		if r.Dev < 0 {
			return err
		}
		c.devErrors.Inc()
		c.mdsFallbacks.Inc()
		r.Dev = -1
		return commit(ctx, r)
	})
	if err := c.engine.Run(ctx, commits, commit, viaMDS); err != nil {
		return err
	}
	// Publish the (possibly extended) size to the metadata server.
	if f.layout != nil && len(devs) > 0 && f.size > f.committed {
		if _, err := c.call(ctx, c.cfg.MDS, true,
			&OpPutFH{FH: f.fh}, &OpLayoutCommit{NewSize: f.size}); err != nil {
			return err
		}
		f.committed = f.size
	}
	return nil
}

// Close fsyncs and releases the open state, retaining the page cache in
// the inode cache keyed by the post-flush change attribute.
func (c *Client) Close(ctx *rpc.Ctx, f *File) error {
	if err := c.Fsync(ctx, f); err != nil {
		return err
	}
	rep, err := c.call(ctx, c.cfg.MDS, true,
		&OpPutFH{FH: f.fh}, &OpGetAttr{}, &OpClose{StateID: f.stateID})
	if err != nil {
		return err
	}
	c.stateMu.Lock()
	// The File's cache reference transfers to the inode cache; whatever the
	// slot held before loses the map's reference.
	if st, ok := c.inodeCache[f.fh]; ok {
		st.pc.release()
	}
	c.inodeCache[f.fh] = &inodeState{
		change: rep.Results[1].(*ResGetAttr).Attr.Change,
		pc:     f.cache,
	}
	c.stateMu.Unlock()
	return nil
}
