package nfs

import (
	"fmt"
	"sort"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
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
		c.flushAsync(ctx, f, extent{run.Off, run.Off + c.cfg.WSize})
	}
	return nil
}

// takeDirty marks run flushed and returns a snapshot of its content (a view
// of the cached segment when the run lies inside one, so later overwrites
// cannot change what is sent) and the sums the cache sealed its whole blocks
// with, which the WRITEs carry to the servers' stores instead of the cache
// verifying those blocks here (pageCache.sliceWith).
func (f *File) takeDirty(run extent) (payload.Payload, store.BlockSums) {
	f.cache.clean(run.Off, run.End)
	data, sums, ok := f.cache.sliceWith(run.Off, run.len(), true)
	if !ok {
		// Dirty bytes are the cache's own, sealed as they were written: only
		// fetched bytes can fail softly.
		panic("nfs: a dirty run failed its first checksum as if fetched")
	}
	return data, sums
}

// wbChunk is one gathered dirty run awaiting write-back: the owning file,
// its logical offset, and its content and block sums (takeDirty).  Its
// owner's Fsync waits on f.pending until it is drained.
type wbChunk struct {
	f    *File
	off  int64
	data payload.Payload
	sums store.BlockSums
}

// flushAsync queues one dirty chunk for write-back and spawns a drain flow
// that takes *every* queued chunk, across all files, and issues them as a
// single coalesced engine run.  Flows are bounded by flushParallel; a flow
// that finds the queue already drained by a sibling exits immediately.
// Failures surface through the owning file's setAsyncErr for its next Fsync.
func (c *Client) flushAsync(ctx *rpc.Ctx, f *File, chunk extent) {
	wb := wbChunk{f: f, off: chunk.Off}
	wb.data, wb.sums = f.takeDirty(chunk)
	f.pending.Add(ctx, 1)
	f.queued.Add(1)
	c.wbMu.Lock()
	c.wbQueue = append(c.wbQueue, wb)
	c.wbMu.Unlock()
	c.flushSlots.Go(ctx, c.flushProc, c.drainWriteBack)
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
		exts, layout := c.chunkExtents(f, wb.off, data.Len())
		fn := c.chunkLadder(f, layout, wb.off, data, wb.sums, false)
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
		wb.f.queued.Add(-1)
		wb.f.pending.Done(ctx)
	}
}

// chunkExtents maps a gathered chunk of f onto the requests that write it,
// and returns the layout it mapped them under: its data-server extents
// under f's layout or, without one, the whole chunk as one pseudo-extent
// for the MDS (Dev -1, the engine's MDS marker).
func (c *Client) chunkExtents(f *File, off, n int64) ([]stripe.Extent, *pnfs.FileLayout) {
	layout, mapper := f.laid()
	if layout == nil {
		return []stripe.Extent{{Dev: -1, Off: off, Len: n}}, nil
	}
	return c.engine.Prepare(mapper.Map(off, n)), layout
}

// chunkLadder builds the per-extent dispatch for one gathered chunk, mapped
// under layout by chunkExtents.  Without a layout that is the write itself — the MDS is the only server.  Under a
// pNFS layout the striped write sits behind a two-rung policy ladder: a
// device error evicts the cached layout, re-drives GETDEVICELIST +
// LAYOUTGET, and retries once against the fresh layout (the layout re-drive,
// paper §4); extents that still cannot reach a data server are proxied
// through the metadata server, which writes into the parallel file system on
// the client's behalf.  Every rung writes stable when stable is set, and
// then leaves no server a COMMIT to do; otherwise each marks the server its
// unstable write landed on touched.
func (c *Client) chunkLadder(f *File, layout *pnfs.FileLayout, off int64, data payload.Payload, sums store.BlockSums, stable bool) ioengine.DoFunc {
	write := func(ctx *rpc.Ctx, l *pnfs.FileLayout, e stripe.Extent) error {
		return c.writeExtent(ctx, f, l, e, data.Slice(e.Off-off, e.Len), extentSums(off, data, sums, e), stable)
	}
	touched := f.markTouched
	if stable {
		touched = nil
	}
	primary := func(ctx *rpc.Ctx, e stripe.Extent) error {
		err := write(ctx, layout, e)
		if err == nil && touched != nil {
			touched(e.Dev)
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
		write, touched)
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

// extentSums returns the share of a flush's block sums that extent e of it
// carries: the sums of the blocks that lie whole inside e, from e's first
// block boundary.  The flush is data at off, its sums covering its whole
// blocks from its own first boundary (takeDirty).  A block with a sum that
// e cuts — a stripe unit that is no multiple of the block — goes in no
// share, so it is verified here, once per extent that holds part of it.
func extentSums(off int64, data payload.Payload, sums store.BlockSums, e stripe.Extent) store.BlockSums {
	if len(sums.Sums) == 0 {
		return store.BlockSums{}
	}
	b0 := (off + store.SumsHead(off)) / sumBlock // the file block of sums.Sums[0]
	b1 := b0 + int64(len(sums.Sums))
	end := e.Off + e.Len
	for _, bi := range [2]int64{e.Off / sumBlock, (end - 1) / sumBlock} {
		if cut := bi*sumBlock < e.Off || (bi+1)*sumBlock > end; cut && bi >= b0 && bi < b1 {
			blk := data.Bytes[bi*sumBlock-off : (bi+1)*sumBlock-off]
			if xdr.ChecksumSalted(sums.Salt0+uint64(bi-b0), blk) != sums.Sums[bi-b0] {
				panic(fmt.Sprintf("nfs: page cache: checksum mismatch in cached block %d", bi))
			}
		}
	}
	lo, hi := (e.Off+sumBlock-1)/sumBlock, min(end/sumBlock, b1)
	if lo >= hi {
		return store.BlockSums{}
	}
	return store.BlockSums{Salt0: sums.Salt0 + uint64(lo-b0), Sums: sums.Sums[lo-b0 : hi-b0 : hi-b0]}
}

// writeExtent writes one extent to the server that holds it under layout l.
// The WRITE carries sums, the extent's block sums (extentSums), when the
// offset it is sent at lines its blocks up with the file's — the same rule
// readExtent applies to a server's sums; otherwise they are verified here.
// The server's store refuses bytes that fail them with Corrupt.  Then the
// bytes sent are checked against the sums sent: a mismatch means client
// memory changed under the cache, as fatal as the cache's own verify, and a
// match that the bytes were damaged on the way, so they are sent again at
// most rpc.IntegrityRetries times.
func (c *Client) writeExtent(ctx *rpc.Ctx, f *File, l *pnfs.FileLayout, e stripe.Extent, chunk payload.Payload, sums store.BlockSums, stable bool) error {
	var sent store.BlockSums
	send := func() error {
		_, err := c.extentCall(ctx, f, l, e, func(off int64) Op {
			sent = sums
			if (off-e.Off)%sumBlock != 0 {
				sent = store.BlockSums{}
				checkSent(e.Off, chunk, sums)
			}
			return &OpWrite{StateID: f.stateID, Off: off, Data: chunk, Stable: stable, Blocks: sent}
		})
		return err
	}
	err := send()
	for attempt := 0; rpc.RetryableIntegrity(err) && sent.Sums != nil && attempt < rpc.IntegrityRetries; attempt++ {
		checkSent(e.Off, chunk, sent)
		err = send()
	}
	return err
}

// checkSent verifies sums against the bytes of a WRITE at off; a mismatch
// means client memory changed after the page cache sealed the blocks.
func checkSent(off int64, data payload.Payload, sums store.BlockSums) {
	if store.CheckSums(off, data.Bytes, sums) != nil {
		panic("nfs: page cache: checksum mismatch in a dirty block being written")
	}
}

// Fsync flushes all dirty data, commits unstable writes on every touched
// server, and publishes metadata via LAYOUTCOMMIT — the paper's prototype
// semantics: data reaches stable storage on fsync/close only (§5).
func (c *Client) Fsync(ctx *rpc.Ctx, f *File) error {
	due, err := c.flush(ctx, f)
	if err != nil || !due {
		return err
	}
	if _, err := c.call(ctx, c.cfg.MDS, true,
		&OpPutFH{FH: f.fh}, &OpLayoutCommit{NewSize: f.size}); err != nil {
		return err
	}
	f.committed = f.size
	return nil
}

// flush makes every dirty byte of f stable and reports whether a
// LAYOUTCOMMIT is due: data went out under a layout and the file grew past
// the size last published.  A lone dirty run of at most WSize, with nothing
// else of the file queued, in flight or awaiting COMMIT, goes out FILE_SYNC
// and skips COMMIT (the Linux client's FLUSH_COND_STABLE).  Otherwise every
// run goes out UNSTABLE through write-back, WSize bytes at a time, and every
// server that took unstable writes is sent a COMMIT.
func (c *Client) flush(ctx *rpc.Ctx, f *File) (layoutCommit bool, err error) {
	c.chargeOp(ctx, 1, 0)
	if run, ok := f.cache.loneDirty(); ok && run.len() <= c.cfg.WSize && f.settled() {
		if err := c.flushStable(ctx, f, run); err != nil {
			return false, err
		}
		return f.lay.Load() != nil && f.size > f.committed, nil
	}
	for {
		run, ok := f.cache.firstDirty()
		if !ok {
			break
		}
		end := run.End
		if end > run.Off+c.cfg.WSize {
			end = run.Off + c.cfg.WSize
		}
		c.flushAsync(ctx, f, extent{run.Off, end})
	}
	f.pending.Wait(ctx)
	if err := f.takeAsyncErr(); err != nil {
		return false, err
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
	layout, _ := f.laid()
	commits := make([]stripe.Extent, len(devs))
	for i, dev := range devs {
		// Dev < 0 is the MDS marker.  An out-of-range or unknown device (the
		// layout was regenerated under a new membership between the write
		// and this commit) is the MDS's to commit the same way.
		if dev >= 0 && (dev >= len(layout.Devices) || c.device(layout.Devices[dev]) == nil) {
			dev = -1
		}
		commits[i] = stripe.Extent{Dev: dev}
	}
	commit := func(ctx *rpc.Ctx, r stripe.Extent) error {
		_, err := c.extentCall(ctx, f, layout, r, func(int64) Op { return &OpCommit{} })
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
		return false, err
	}
	return layout != nil && len(devs) > 0 && f.size > f.committed, nil
}

// flushStable writes f's lone dirty run FILE_SYNC, on the caller's flow,
// through the same ladder and window class as write-back.  A failure of an
// earlier write-back flush is reported first, as Fsync always has.
func (c *Client) flushStable(ctx *rpc.Ctx, f *File, run extent) error {
	data, sums := f.takeDirty(run)
	defer data.Release()
	exts, layout := c.chunkExtents(f, run.Off, run.len())
	err := c.engine.RunWith(ctx, ioengine.RunOpts{Class: ioengine.Background}, exts,
		c.chunkLadder(f, layout, run.Off, data, sums, true))
	if aerr := f.takeAsyncErr(); aerr != nil {
		return aerr
	}
	return err
}

// Close flushes f and releases the open state, retaining the page cache in
// the inode cache keyed by the post-flush change attribute.  A LAYOUTCOMMIT
// the flush left due rides in the CLOSE compound: PUTFH, LAYOUTCOMMIT,
// GETATTR, CLOSE.
func (c *Client) Close(ctx *rpc.Ctx, f *File) error {
	due, err := c.flush(ctx, f)
	if err != nil {
		return err
	}
	ops := append(make([]Op, 0, 4), &OpPutFH{FH: f.fh})
	if due {
		ops = append(ops, &OpLayoutCommit{NewSize: f.size})
	}
	ops = append(ops, &OpGetAttr{}, &OpClose{StateID: f.stateID})
	rep, err := c.call(ctx, c.cfg.MDS, true, ops...)
	if err != nil {
		return err
	}
	if due {
		f.committed = f.size
	}
	c.stateMu.Lock()
	// The File's cache reference transfers to the inode cache; whatever the
	// slot held before loses the map's reference.
	if st, ok := c.inodeCache[f.fh]; ok {
		st.pc.release()
	}
	c.inodeCache[f.fh] = &inodeState{
		change: rep.Results[len(ops)-2].(*ResGetAttr).Attr.Change,
		pc:     f.cache,
	}
	c.stateMu.Unlock()
	return nil
}
