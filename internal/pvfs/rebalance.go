package pvfs

import (
	"fmt"
	"slices"
	"sort"

	"dpnfs/internal/fserr"
	"dpnfs/internal/rpc"
)

// Rebalance makes target the distribution new files are created under, then
// moves every file whose placement differs from it onto it, in one pass.
// The pass walks the namespace and copies bytes through copier on the
// caller's flow, so copier's QoS class is the migration's; real asks it to
// carry real bytes.  It returns the files moved and the bytes copied — the
// totals so far when an error stops the pass.
func (m *MetaServer) Rebalance(ctx *rpc.Ctx, copier *Client, target DistParams, real bool) (files int, bytes int64, err error) {
	m.mu.Lock()
	m.dist = target
	m.mu.Unlock()
	hs, err := copier.regularFiles(ctx, copier.RootHandle(), nil)
	if err != nil {
		return 0, 0, err
	}
	for _, h := range hs {
		place, err := m.PlacementOf(h)
		if err != nil {
			return files, bytes, fmt.Errorf("pvfs: placement of %x: %w", uint64(h), err)
		}
		if place.Dist.StripeSize == target.StripeSize && slices.Equal(place.Dist.Servers, target.Servers) {
			continue // already placed as target places bytes
		}
		n, err := m.migrate(ctx, copier, h, place, target, real)
		bytes += n
		if err != nil {
			return files, bytes, err
		}
		files++
	}
	return files, bytes, nil
}

// regularFiles appends to files the handle of every regular file under dir,
// in deterministic (sorted, depth-first) order.
func (c *Client) regularFiles(ctx *rpc.Ctx, dir Handle, files []Handle) ([]Handle, error) {
	names, err := c.ReadDirH(ctx, dir)
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		h, _, isDir, err := c.LookupH(ctx, dir, name)
		if err != nil {
			return nil, err
		}
		if !isDir {
			files = append(files, h)
		} else if files, err = c.regularFiles(ctx, h, files); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// migrate moves file h from placement from onto target and returns the
// bytes it copied.
//
// Shadow objects are created on target's servers under a fresh data
// handle, recorded first so that removing the file meanwhile removes them
// too.  The bytes go over chunk by chunk, written with Sync so every
// acknowledged byte is on stable storage before the placement flips; a
// crash mid-copy leaves the old placement whole, and a daemon down
// mid-copy fails copier's calls retryably, so its retry loop waits out the
// outage.  Then the record flips to the shadow placement and the objects
// of every placement it replaced go: an I/O still addressed to them
// answers Stale, and its client reads the placement again.  The record
// keeps the objects whose removal failed, for the file's remove to retry;
// a file removed meanwhile stays removed.  Last, the copy skips holes, so
// the new objects can stop short of the sizes the new geometry gives
// them: a truncate publishes the exact logical size onto the new
// placement (the daemons sync a truncate of shadow objects, like their
// creation).
func (m *MetaServer) migrate(ctx *rpc.Ctx, copier *Client, h Handle, from Placement, target DistParams, real bool) (copied int64, err error) {
	m.mu.Lock()
	r := m.records[h]
	if r == nil {
		m.mu.Unlock()
		return 0, fmt.Errorf("pvfs: prepare migrate %x: %w", uint64(h), fserr.ErrIO)
	}
	to := Placement{Data: m.nextShadow, Dist: target}
	m.nextShadow++
	r.objects = append(r.objects, to)
	m.mu.Unlock()
	if err := m.createObjects(ctx, to); err != nil {
		return 0, fmt.Errorf("pvfs: prepare migrate %x: %w", uint64(h), err)
	}
	src, dst := copier.OpenPlaced(h, from), copier.OpenPlaced(h, to)
	size, err := copier.GetAttr(ctx, src)
	if err != nil {
		return 0, err
	}
	chunk := max(target.StripeSize*int64(len(target.Servers)), target.StripeSize)
	for off := int64(0); off < size; off += chunk {
		n := min(size-off, chunk)
		data, got, err := copier.Read(ctx, src, off, n, real)
		if err == nil && got > 0 { // a hole has nothing to carry over
			_, err = copier.Write(ctx, dst, off, data, true)
		}
		if err != nil {
			return copied, fmt.Errorf("pvfs: migration chunk %x@%d: %w", uint64(h), off, err)
		}
		copied += n
	}
	var replaced []Placement
	m.mu.Lock()
	if r := m.records[h]; r != nil {
		r.place = to
		replaced = slices.DeleteFunc(r.objects, func(o Placement) bool { return o.Data == to.Data })
		r.objects = []Placement{to}
	}
	m.mu.Unlock()
	failed := m.removeObjects(ctx, replaced)
	m.mu.Lock()
	if r := m.records[h]; r != nil {
		r.objects = append(r.objects, failed...)
	}
	m.mu.Unlock()
	return copied, copier.Truncate(ctx, dst, size)
}
