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

// refreshDevices re-drives GETDEVICELIST and dials any newly advertised
// device.  Conns for departed devices are retained so layouts fetched
// before a membership change stay usable.  A server without pNFS support
// fails the GETDEVICELIST op itself: it lists no devices, and neither does
// any server to a client without a data-server dialer; only a compound
// that failed before the op is an error.
func (c *Client) refreshDevices(ctx *rpc.Ctx) error {
	rep, err := c.call(ctx, c.cfg.MDS, true, &OpPutRootFH{}, &OpGetDevList{})
	if rep == nil || len(rep.Results) < 2 {
		return err
	}
	dl, ok := rep.Results[1].(*ResGetDevList)
	if !ok {
		return err
	}
	if dl.Errno != 0 || c.cfg.DialDS == nil {
		return nil
	}
	c.stateMu.Lock()
	for _, dev := range dl.Devices {
		if c.devices[dev.ID] == nil {
			c.devices[dev.ID] = c.cfg.DialDS(dev.Addr)
		}
	}
	c.stateMu.Unlock()
	return nil
}

// fetchLayout gets (or reuses) the file's layout.  Layouts apply to the
// whole file and stay valid for the lifetime of the inode (paper §5) —
// unless a device error evicts them (recoverLayout).
func (f *File) fetchLayout(ctx *rpc.Ctx) error {
	f.c.stateMu.Lock()
	l, ok := f.c.layouts[f.fh]
	f.c.stateMu.Unlock()
	if ok {
		f.c.layoutHits.Inc()
		return f.useLayout(ctx, l)
	}
	rep, err := f.c.call(ctx, f.c.cfg.MDS, true, &OpPutFH{FH: f.fh}, &OpLayoutGet{})
	if err != nil {
		return err
	}
	return f.adoptLayout(ctx, rep.Results[1].(*ResLayoutGet))
}

// adoptLayout caches the layout a LAYOUTGET returned for f — on its own, or
// inside a creating OPEN's compound — and makes it f's.
func (f *File) adoptLayout(ctx *rpc.Ctx, lg *ResLayoutGet) error {
	f.c.stateMu.Lock()
	f.c.layouts[f.fh] = &lg.Layout
	f.c.stateMu.Unlock()
	return f.useLayout(ctx, &lg.Layout)
}

// laidOut is a layout as a file's I/O uses it: with its aggregation driver.
type laidOut struct {
	layout *pnfs.FileLayout
	mapper stripe.Mapper
}

// laid returns f's layout and its driver, both nil without one.
func (f *File) laid() (*pnfs.FileLayout, stripe.Mapper) {
	if lo := f.lay.Load(); lo != nil {
		return lo.layout, lo.mapper
	}
	return nil, nil
}

// useLayout makes l f's layout, dialing any device l references that joined
// after mount.
func (f *File) useLayout(ctx *rpc.Ctx, l *pnfs.FileLayout) error {
	m, err := l.Mapper()
	if err != nil {
		return fmt.Errorf("nfs: layout for %s: %w", f.Path, err)
	}
	for _, id := range l.Devices {
		if f.c.device(id) == nil {
			// A device this layout references may have joined after mount:
			// refresh the device list once before giving up.
			if err := f.c.refreshDevices(ctx); err != nil || f.c.device(id) == nil {
				return fmt.Errorf("nfs: layout references unknown device %d", id)
			}
		}
	}
	f.lay.Store(&laidOut{l, m})
	return nil
}

// recoverLayout handles a data-server failure: it evicts the file's cached
// layout, re-drives GETDEVICELIST (re-dialing every advertised device) and
// LAYOUTGET, and makes the fresh layout the file's — later extents go out
// under it — and returns it for a single retry.  A nil return means
// recovery itself failed — the caller then proxies the extent through the
// MDS, the protocol's guaranteed-correct fallback path (paper §4).
func (c *Client) recoverLayout(ctx *rpc.Ctx, f *File) *laidOut {
	c.stateMu.Lock()
	delete(c.layouts, f.fh)
	c.stateMu.Unlock()
	c.layoutEvicts.Inc()
	_ = c.refreshDevices(ctx) // best effort: LAYOUTGET below decides
	rep, err := c.call(ctx, c.cfg.MDS, true, &OpPutFH{FH: f.fh}, &OpLayoutGet{})
	if err != nil || f.adoptLayout(ctx, rep.Results[1].(*ResLayoutGet)) != nil {
		return nil
	}
	c.layoutRefch.Inc()
	return f.lay.Load()
}

// recoveryRung builds the layout-recovery rung the write and read ladders
// share.  A device error evicts the file's cached layout, re-drives
// GETDEVICELIST + LAYOUTGET, and retries the extent once through op — the
// ladder's data-server operation — under the fresh layout, unless another
// flow of the file already replaced the failed layout with one of another
// geometry, which is then used as is.  When the fresh layout's geometry
// differs from layout's (the file moved under a membership change) the
// extent's device index is meaningless under it, so remap maps the logical
// range through the fresh mapper and op runs on each sub-extent.  settled,
// when non-nil, learns where the retried extent landed: its device index,
// or -1 (the MDS) after a remap.  Failures of recovery itself return the
// original error so the next rung (the MDS proxy) takes over.
func (c *Client) recoveryRung(f *File, layout *pnfs.FileLayout,
	remap func(m stripe.Mapper, e stripe.Extent) []stripe.Extent,
	op func(ctx *rpc.Ctx, l *pnfs.FileLayout, e stripe.Extent) error,
	settled func(dev int)) ioengine.Policy {
	return ioengine.WithFallback(func(ctx *rpc.Ctx, e stripe.Extent, err error) error {
		c.devErrors.Inc()
		lo := f.lay.Load()
		if lo.layout.SameGeometry(layout) {
			if lo = c.recoverLayout(ctx, f); lo == nil {
				return err
			}
		}
		dev, exts := e.Dev, []stripe.Extent{e}
		if !lo.layout.SameGeometry(layout) {
			dev, exts = -1, remap(lo.mapper, e)
		}
		for _, se := range exts {
			if err2 := op(ctx, lo.layout, se); err2 != nil {
				return err2
			}
		}
		if settled != nil {
			settled(dev)
		}
		return nil
	})
}
