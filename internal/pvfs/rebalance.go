package pvfs

import (
	"fmt"
	"slices"

	"dpnfs/internal/rpc"
)

// Rebalance makes target the distribution new files are created under, then
// moves every file whose placement differs from it onto it, in one pass
// over the metadata manager's own records in handle order; a file removed
// before its turn or while it moves is passed over.  The bytes go through
// copier on the caller's flow, so copier's QoS class is the migration's;
// real asks it to carry real bytes.  It returns the files moved and the
// bytes copied — the totals so far when an error stops the pass.
func (m *MetaServer) Rebalance(ctx *rpc.Ctx, copier *Client, target DistParams, real bool) (files int, bytes int64, err error) {
	m.mu.Lock()
	m.dist = target
	hs := make([]Handle, 0, len(m.records))
	for h := range m.records {
		hs = append(hs, h)
	}
	m.mu.Unlock()
	slices.Sort(hs)
	for _, h := range hs {
		moved, n, err := m.migrate(ctx, copier, h, target, real)
		bytes += n
		if err != nil {
			return files, bytes, err
		}
		if moved {
			files++
		}
	}
	return files, bytes, nil
}

// migrate moves file h onto target, unless its record is gone or already
// places bytes as target does, and reports whether it moved the file and
// the bytes it copied.
//
// Shadow objects are filled under a fresh data handle (fill), recorded
// first so that removing the file meanwhile removes them too.  Every step
// that can fail comes before the flip, so a failure or a crash leaves the
// file whole on its old placement.  Then the record flips to the shadow
// placement and the objects of every placement it replaced go: an I/O
// still addressed to them answers Stale, and its client reads the
// placement again.  The record keeps the objects whose removal failed, for
// the file's remove to retry.  A file removed meanwhile is passed over:
// its remove took the shadow objects along.
func (m *MetaServer) migrate(ctx *rpc.Ctx, copier *Client, h Handle, target DistParams, real bool) (moved bool, copied int64, err error) {
	m.mu.Lock()
	r := m.records[h]
	if r == nil || r.place.Dist.StripeSize == target.StripeSize && slices.Equal(r.place.Dist.Servers, target.Servers) {
		m.mu.Unlock()
		return false, 0, nil
	}
	from, to := r.place, Placement{Data: m.nextShadow, Dist: target}
	m.nextShadow++
	r.objects = append(r.objects, to)
	m.mu.Unlock()
	copied, err = m.fill(ctx, copier, h, from, to, real)
	var replaced []Placement
	m.mu.Lock()
	live := m.records[h] == r
	if live && err == nil {
		r.place = to
		replaced = slices.DeleteFunc(r.objects, func(o Placement) bool { return o.Data == to.Data })
		r.objects = []Placement{to}
	}
	m.mu.Unlock()
	if !live {
		return false, copied, nil
	}
	if err != nil {
		return false, copied, fmt.Errorf("pvfs: migrate %x: %w", uint64(h), err)
	}
	failed := m.removeObjects(ctx, replaced)
	m.mu.Lock()
	if m.records[h] == r {
		r.objects = append(r.objects, failed...)
	}
	m.mu.Unlock()
	return true, copied, nil
}

// fill creates the objects of shadow placement to and copies file h's
// bytes into them from placement from, returning the bytes it copied.  The
// bytes go over chunk by chunk, written with Sync so every acknowledged
// byte is on stable storage before the placement flips; a daemon down
// mid-copy fails copier's calls retryably, so its retry loop waits out the
// outage.  The copy skips holes, so a truncate then gives each object the
// exact size the new geometry gives it (the daemons sync a truncate, like
// a create).
func (m *MetaServer) fill(ctx *rpc.Ctx, copier *Client, h Handle, from, to Placement, real bool) (copied int64, err error) {
	if err := m.createObjects(ctx, to); err != nil {
		return 0, err
	}
	size, _, err := m.size(ctx, from)
	if err != nil {
		return 0, err
	}
	src, dst := copier.OpenPlaced(h, from), copier.OpenPlaced(h, to)
	chunk := max(to.Dist.StripeSize*int64(len(to.Dist.Servers)), to.Dist.StripeSize)
	for off := int64(0); off < size; off += chunk {
		n := min(size-off, chunk)
		data, got, err := copier.Read(ctx, src, off, n, real)
		if err == nil && got > 0 { // a hole has nothing to carry over
			_, err = copier.Write(ctx, dst, off, data, true)
		}
		if err != nil {
			return copied, fmt.Errorf("chunk @%d: %w", off, err)
		}
		copied += n
	}
	return copied, m.truncate(ctx, to, size)
}
