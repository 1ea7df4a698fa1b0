package nfs

import (
	"fmt"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/stripe"
)

// device returns the conn for a device ID (nil if unknown).
func (c *Client) device(id pnfs.DeviceID) rpc.Conn {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.devices[id]
}

// deviceActive reports whether id appears in the most recent device list
// and has a conn — the liveness test replica failover uses so it never
// retries a departed device.
func (c *Client) deviceActive(id pnfs.DeviceID) bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.active[id] && c.devices[id] != nil
}

// extentCall sends PUTFH + op for extent e of f to the server that holds it —
// the one place a data-path compound is addressed.  A striped extent goes to
// its data server under layout l, sessionless, by the stripe object's
// filehandle; op gets the offset that server expects (the device offset when
// the layout exposes the stripe objects directly, the logical offset
// otherwise).  Dev < 0, the engine's MDS marker, goes to the metadata server
// over a session slot, by the file's own handle and logical offset.
func (c *Client) extentCall(ctx *rpc.Ctx, f *File, l *pnfs.FileLayout, e stripe.Extent, op func(off int64) Op) (*CompoundRep, error) {
	if e.Dev < 0 {
		return c.call(ctx, c.cfg.MDS, true, &OpPutFH{FH: f.fh}, op(e.Off))
	}
	conn := c.device(l.Devices[e.Dev])
	if conn == nil {
		return nil, fmt.Errorf("nfs: no conn for device %d", l.Devices[e.Dev])
	}
	off := e.Off
	if l.Direct {
		off = e.DevOff
	}
	return c.call(ctx, conn, false, &OpPutFH{FH: l.FHs[e.Dev]}, op(off))
}

// refreshDevices re-drives GETDEVICELIST, dials any newly advertised
// device, and replaces the active set.  Conns for departed devices are
// retained so data written under older layout generations stays reachable.
func (c *Client) refreshDevices(ctx *rpc.Ctx) error {
	if c.cfg.DialDS == nil {
		return fmt.Errorf("nfs: no data-server dialer")
	}
	rep, err := c.call(ctx, c.cfg.MDS, true, &OpPutRootFH{}, &OpGetDevList{})
	if err != nil {
		return err
	}
	dl, ok := rep.Results[1].(*ResGetDevList)
	if !ok || dl.Errno != 0 {
		return fmt.Errorf("nfs: GETDEVICELIST refresh failed")
	}
	c.stateMu.Lock()
	c.active = make(map[pnfs.DeviceID]bool, len(dl.Devices))
	for _, dev := range dl.Devices {
		if c.devices[dev.ID] == nil {
			c.devices[dev.ID] = c.cfg.DialDS(dev.Addr)
		}
		c.active[dev.ID] = true
	}
	c.stateMu.Unlock()
	return nil
}

// InvalidateLayouts discards every cached layout and bumps the layout
// epoch, so each open file refetches its layout (and the device list)
// before its next striped I/O.  The cluster calls this after a membership
// change regenerates layouts at a new generation.
func (c *Client) InvalidateLayouts() {
	c.stateMu.Lock()
	n := len(c.layouts)
	c.layouts = make(map[uint64]*pnfs.FileLayout)
	c.epoch++
	c.stateMu.Unlock()
	for i := 0; i < n; i++ {
		c.layoutEvicts.Inc()
	}
}

func (c *Client) epochNow() uint64 {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.epoch
}

// fetchLayout gets (or reuses) the file's layout.  Layouts apply to the
// whole file and stay valid for the lifetime of the inode (paper §5) —
// unless a device error evicts them (recoverLayout).
func (f *File) fetchLayout(ctx *rpc.Ctx) error {
	f.c.stateMu.Lock()
	l, ok := f.c.layouts[f.fh]
	epoch := f.c.epoch
	f.c.stateMu.Unlock()
	if ok {
		f.c.layoutHits.Inc()
		f.layout = l
	} else {
		rep, err := f.c.call(ctx, f.c.cfg.MDS, true, &OpPutFH{FH: f.fh}, &OpLayoutGet{})
		if err != nil {
			return err
		}
		lg := rep.Results[1].(*ResLayoutGet)
		f.layout = &lg.Layout
		f.c.stateMu.Lock()
		f.c.layouts[f.fh] = f.layout
		f.c.stateMu.Unlock()
	}
	m, err := f.layout.Mapper()
	if err != nil {
		return fmt.Errorf("nfs: layout for %s: %w", f.Path, err)
	}
	f.mapper = m
	f.epoch = epoch
	for _, id := range f.layout.Devices {
		if f.c.device(id) == nil {
			// A device this layout references may have joined after mount:
			// refresh the device list once before giving up.
			if err := f.c.refreshDevices(ctx); err != nil || f.c.device(id) == nil {
				return fmt.Errorf("nfs: layout references unknown device %d", id)
			}
		}
	}
	return nil
}

// ensureLayout refetches the file's layout when the client's layout epoch
// moved since the layout was fetched (a membership change invalidated it).
func (f *File) ensureLayout(ctx *rpc.Ctx) error {
	if f.mapper == nil || f.epoch == f.c.epochNow() {
		return nil
	}
	f.layoutMu.Lock()
	defer f.layoutMu.Unlock()
	if f.epoch == f.c.epochNow() {
		return nil
	}
	return f.fetchLayout(ctx)
}

// recoverLayout handles a data-server failure: it evicts the file's cached
// layout, re-drives GETDEVICELIST (re-dialing every advertised device) and
// LAYOUTGET, and returns the fresh layout for a single retry.  A nil return
// means recovery itself failed — the caller then proxies the extent through
// the MDS, the protocol's guaranteed-correct fallback path (paper §4).
func (c *Client) recoverLayout(ctx *rpc.Ctx, f *File) *pnfs.FileLayout {
	c.stateMu.Lock()
	delete(c.layouts, f.fh)
	c.stateMu.Unlock()
	c.layoutEvicts.Inc()
	_ = c.refreshDevices(ctx) // best effort: LAYOUTGET below decides
	rep, err := c.call(ctx, c.cfg.MDS, true, &OpPutFH{FH: f.fh}, &OpLayoutGet{})
	if err != nil {
		return nil
	}
	lg := rep.Results[1].(*ResLayoutGet)
	l := lg.Layout
	if _, err := l.Mapper(); err != nil {
		return nil
	}
	c.stateMu.Lock()
	for _, id := range l.Devices {
		if _, ok := c.devices[id]; !ok {
			c.stateMu.Unlock()
			return nil
		}
	}
	c.layouts[f.fh] = &l
	c.stateMu.Unlock()
	c.layoutRefch.Inc()
	return &l
}

// recoveryRung builds the layout-recovery rung the write and read ladders
// share.  A device error evicts the file's cached layout, re-drives
// GETDEVICELIST + LAYOUTGET, and retries the extent once through op — the
// ladder's data-server operation — under the fresh layout.  When that layout
// was regenerated under a new membership (its Gen moved past layout's) the
// extent's device index is meaningless under the new geometry, so remap maps
// the logical range through the fresh mapper and op runs on each sub-extent.
// settled, when non-nil, learns where the retried extent landed: its device
// index, or -1 (the MDS) after a remap.  Failures of recovery itself return
// the original error so the next rung (the MDS proxy) takes over.
func (c *Client) recoveryRung(f *File, layout *pnfs.FileLayout,
	remap func(m stripe.Mapper, e stripe.Extent) []stripe.Extent,
	op func(ctx *rpc.Ctx, l *pnfs.FileLayout, e stripe.Extent) error,
	settled func(dev int)) ioengine.Policy {
	return ioengine.WithFallback(func(ctx *rpc.Ctx, e stripe.Extent, err error) error {
		c.devErrors.Inc()
		l2 := c.recoverLayout(ctx, f)
		if l2 == nil {
			return err
		}
		dev := e.Dev
		exts := []stripe.Extent{e}
		if l2.Gen != layout.Gen {
			m2, merr := l2.Mapper()
			if merr != nil {
				return err
			}
			dev, exts = -1, remap(m2, e)
		} else if e.Dev >= len(l2.Devices) {
			return err
		}
		for _, se := range exts {
			if err2 := op(ctx, l2, se); err2 != nil {
				return err2
			}
		}
		if settled != nil {
			settled(dev)
		}
		return nil
	})
}
