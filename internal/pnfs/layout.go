// Package pnfs implements the pNFS layout machinery of NFSv4.1 plus the two
// Direct-pNFS additions the paper contributes (§4):
//
//   - the layout translator, which converts a file's placement in a
//     parallel file system — the storage servers holding its stripe objects,
//     in stripe order, and the handle addressing them — into a pNFS
//     file-based layout without interpreting file-system specific
//     information, and
//   - pluggable aggregation drivers, which let an unmodified client
//     understand unconventional striping schemes (variable stripe size,
//     replicated, hierarchical) beyond the two standard NFSv4.1 schemes
//     (round-robin and cyclic device patterns).
//
// A layout tells the client, for any byte range, which data server holds
// the bytes and under which file handle to address them.  Direct layouts
// describe the exact physical distribution, so clients send device-space
// offsets straight to the storage nodes; indirect (two/three-tier) layouts
// stripe logical offsets across intermediary data servers.
//
// # Device-ID stability
//
// A DeviceID names one data server for the lifetime of the file system, not
// a position in the current device list.  Under elastic membership
// (cluster join/drain) entries come and go from GETDEVICELIST, so an ID is
// allocated once per node and never reused after the node departs.  A data
// server co-located with a storage server carries that server's ID, so a
// file's placement names its layout's devices as they are.  A layout held
// across a membership change that moved its file fails at the data
// servers, which refuse I/O under a placement that is no longer the file's
// (RFC 5661 §13.6), and the client goes back through GETDEVICELIST +
// LAYOUTGET.  Whether the fresh layout's geometry (SameGeometry) matches
// the failed one's tells a positional retry on the same devices from a
// remap of the bytes through the new layout.
package pnfs

import (
	"fmt"
	"slices"

	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
)

// DeviceID names a data server within a file system's device list.
type DeviceID uint32

// DeviceInfo is one GETDEVLIST entry: the addressing information for a data
// server.
type DeviceInfo struct {
	ID   DeviceID
	Addr string // node name (simulation) or host:port (TCP demo)
}

// Aggregation scheme names carried in layouts.  RoundRobin and Cyclic are
// the NFSv4.1-standard schemes; the rest require a pluggable aggregation
// driver on the client (paper §4.3).
const (
	AggRoundRobin     = "round-robin"
	AggCyclic         = "cyclic"
	AggVariableStripe = "variable-stripe"
	AggReplicated     = "replicated"
	AggHierarchical   = "hierarchical"
)

// FileLayout is a pNFS file-based layout (paper §3.4): aggregation type and
// stripe size, data server identifiers, one file handle per data server,
// and policy parameters.
type FileLayout struct {
	// Aggregation names the scheme; Params are its geometry constants
	// (interpretation per scheme, see Mapper).
	Aggregation string
	Params      []int64
	// Devices lists the data servers in stripe order; FHs holds the file
	// handle valid on each.
	Devices []DeviceID
	FHs     []uint64
	// Direct reports that offsets in the layout's device space address the
	// storage objects themselves (Direct-pNFS).  When false, data servers
	// interpret logical file offsets (two/three-tier file-based pNFS).
	Direct bool
}

// SameGeometry reports whether l and o place bytes identically: the same
// aggregation and params over the same devices and file handles, so a
// device index from one is valid in the other.
func (l *FileLayout) SameGeometry(o *FileLayout) bool {
	return l.Aggregation == o.Aggregation && slices.Equal(l.Params, o.Params) &&
		slices.Equal(l.Devices, o.Devices) && slices.Equal(l.FHs, o.FHs)
}

// Mapper instantiates the aggregation driver the layout names over its
// devices.
func (l *FileLayout) Mapper() (stripe.Mapper, error) {
	return NewMapper(l.Aggregation, l.Params, len(l.Devices))
}

// NewMapper instantiates the named aggregation's driver from its params
// over devices data servers.
func NewMapper(agg string, params []int64, devices int) (stripe.Mapper, error) {
	if devices == 0 {
		return nil, fmt.Errorf("pnfs: layout has no devices")
	}
	drv, ok := drivers[agg]
	if !ok {
		return nil, fmt.Errorf("pnfs: no aggregation driver for %q", agg)
	}
	return drv(params, devices)
}

// drivers builds each aggregation scheme's mapper from layout params and a
// device count: the two NFSv4.1-standard schemes, and the three that need a
// pluggable driver on the client.
var drivers = map[string]func(params []int64, devices int) (stripe.Mapper, error){
	AggRoundRobin: func(params []int64, devices int) (stripe.Mapper, error) {
		if len(params) != 1 {
			return nil, fmt.Errorf("pnfs: round-robin wants 1 param, got %d", len(params))
		}
		return stripe.NewRoundRobin(params[0], devices), nil
	},
	AggCyclic: func(params []int64, _ int) (stripe.Mapper, error) {
		if len(params) < 2 {
			return nil, fmt.Errorf("pnfs: cyclic wants unit + order params")
		}
		order := make([]int, len(params)-1)
		for i, v := range params[1:] {
			order[i] = int(v)
		}
		return stripe.NewCyclic(params[0], order), nil
	},
	AggVariableStripe: func(params []int64, devices int) (stripe.Mapper, error) {
		if len(params) != devices {
			return nil, fmt.Errorf("pnfs: variable-stripe wants %d sizes, got %d", devices, len(params))
		}
		return stripe.NewVariableStripe(params), nil
	},
	AggReplicated: func(params []int64, devices int) (stripe.Mapper, error) {
		if len(params) != 2 {
			return nil, fmt.Errorf("pnfs: replicated wants [copies, unit], got %d params", len(params))
		}
		m, err := stripe.NewReplicated(params[1], devices, int(params[0]))
		if err != nil {
			return nil, err // not a typed nil inside the interface
		}
		return m, nil
	},
	AggHierarchical: func(params []int64, devices int) (stripe.Mapper, error) {
		if len(params) != 3 {
			return nil, fmt.Errorf("pnfs: hierarchical wants [outer, inner, groups], got %d params", len(params))
		}
		groups := int(params[2])
		if groups <= 0 || devices%groups != 0 {
			return nil, fmt.Errorf("pnfs: %d devices not divisible into %d groups", devices, groups)
		}
		return stripe.NewHierarchical(params[0], params[1], groups, devices/groups), nil
	},
}

// MaxDevices bounds the device lists a decoder accepts: GETDEVICELIST's
// and a layout's, whose params share the bound.
const MaxDevices = 4096

func (id *DeviceID) XDR(f xdr.Filter) { f.U32((*uint32)(id)) }

func (d *DeviceInfo) XDR(f xdr.Filter) {
	d.ID.XDR(f)
	f.Text(&d.Addr)
}

// XDR passes the layout; each device travels with its file handle.
func (l *FileLayout) XDR(f xdr.Filter) {
	f.Text(&l.Aggregation)
	xdr.Slice(f, &l.Params, MaxDevices, xdr.SizeUint64, xdr.Filter.I64)
	n := f.Count(len(l.Devices), MaxDevices, xdr.SizeUint32+xdr.SizeUint64)
	if f.Decoding() {
		l.Devices, l.FHs = make([]DeviceID, n), make([]uint64, n)
	}
	for i := range l.Devices {
		l.Devices[i].XDR(f)
		f.U64(&l.FHs[i])
	}
	f.Flag(&l.Direct)
}

// Validate checks internal consistency (device/FH parity, instantiable
// aggregation).
func (l *FileLayout) Validate() error {
	if len(l.Devices) != len(l.FHs) {
		return fmt.Errorf("pnfs: %d devices but %d file handles", len(l.Devices), len(l.FHs))
	}
	_, err := l.Mapper()
	return err
}

// NativeLayout is what the layout translator consumes: a file's placement
// in the parallel file system, expressed only in protocol-neutral terms
// (the translator never interprets file-system internals, paper §4.2).
type NativeLayout struct {
	Aggregation string
	Params      []int64
	// Devices lists the storage servers holding the file's stripe objects,
	// in stripe order, by their stable IDs: each is also the device ID of
	// the pNFS data server co-located with it.
	Devices []DeviceID
	// ObjectHandle addresses the file's stripe objects on every server.
	ObjectHandle uint64
}

// Translate converts a file's placement into a pNFS file-based layout
// whose devices are the NFSv4 servers co-located with the storage servers:
// the same devices in the same order, each addressed by the object handle,
// under the placement's aggregation and params, with direct offsets.  The
// layout shares no memory with n.
func Translate(n NativeLayout) (*FileLayout, error) {
	out := &FileLayout{
		Aggregation: n.Aggregation,
		Params:      append([]int64(nil), n.Params...),
		Devices:     append([]DeviceID(nil), n.Devices...),
		FHs:         make([]uint64, len(n.Devices)),
		Direct:      true,
	}
	for i := range out.FHs {
		out.FHs[i] = n.ObjectHandle
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
