// Package stripe implements aggregation drivers: the mapping from a file's
// logical byte space onto storage devices (paper §4.3).
//
// The NFSv4.1 file-based layout natively expresses round-robin striping and
// a cyclic device-list pattern; Direct-pNFS additionally supports pluggable
// drivers for unconventional schemes — variable stripe size, replicated
// striping, and hierarchical striping — modelled on PVFS2 distribution
// drivers.  The same drivers serve both the PVFS2 substrate (physical data
// placement) and the pNFS clients (layout interpretation), which is exactly
// the property the layout translator relies on: both sides compute the same
// map.
package stripe

import (
	"fmt"
	"sort"
)

// Extent is a contiguous range on one device.
//
// Off is the logical file offset of the extent; DevOff is the byte offset
// within the device's stripe object where that logical range lives.
type Extent struct {
	Dev    int
	Off    int64
	DevOff int64
	Len    int64
}

// Mapper translates logical file ranges to device extents.
type Mapper interface {
	// NumDevices reports how many devices the scheme spreads data over.
	NumDevices() int
	// Map splits [off, off+length) into per-device extents in logical
	// order.  Every byte of the range appears in exactly one extent per
	// stored copy.
	Map(off, length int64) []Extent
	// ReadMap is like Map but returns exactly one extent per logical byte:
	// a replicated scheme reads the copy seed picks, spreading load.
	ReadMap(off, length int64, seed int64) []Extent
}

// RoundRobin stripes fixed-size units across devices in order: unit u lives
// on device u % N at object offset (u / N) * UnitSize.  This is the
// NFSv4.1 file layout's standard aggregation (and PVFS2's default).
type RoundRobin struct {
	UnitSize int64
	Devices  int
}

// NewRoundRobin returns a round-robin mapper; it panics on nonsensical
// geometry, which indicates a wiring bug.
func NewRoundRobin(unitSize int64, devices int) *RoundRobin {
	if unitSize <= 0 || devices <= 0 {
		panic(fmt.Sprintf("stripe: bad round-robin geometry: unit=%d devices=%d", unitSize, devices))
	}
	return &RoundRobin{UnitSize: unitSize, Devices: devices}
}

// NumDevices implements Mapper.
func (m *RoundRobin) NumDevices() int { return m.Devices }

// Map implements Mapper.
func (m *RoundRobin) Map(off, length int64) []Extent {
	var out []Extent
	for length > 0 {
		u := off / m.UnitSize
		inUnit := off % m.UnitSize
		n := m.UnitSize - inUnit
		if n > length {
			n = length
		}
		out = append(out, Extent{
			Dev:    int(u % int64(m.Devices)),
			Off:    off,
			DevOff: (u/int64(m.Devices))*m.UnitSize + inUnit,
			Len:    n,
		})
		off += n
		length -= n
	}
	return coalesce(out)
}

// ReadMap implements Mapper.
func (m *RoundRobin) ReadMap(off, length, _ int64) []Extent { return m.Map(off, length) }

// LogicalEnd returns the logical file end implied by a stripe object of
// objSize bytes on dev — the logical offset just past that object's last
// byte.  PVFS2 reconstructs a file's size as the maximum LogicalEnd over
// its datafiles.
func (m *RoundRobin) LogicalEnd(dev int, objSize int64) int64 {
	if objSize <= 0 {
		return 0
	}
	last := objSize - 1
	u := last / m.UnitSize
	inUnit := last % m.UnitSize
	logicalUnit := u*int64(m.Devices) + int64(dev)
	return logicalUnit*m.UnitSize + inUnit + 1
}

// Cyclic stripes units across an explicit device order that repeats for the
// whole file — the NFSv4.1 layout's second standard scheme, where the device
// list itself encodes the pattern (e.g. [0 2 4 1 3 5]).
type Cyclic struct {
	UnitSize int64
	Order    []int // device index per unit slot; len(Order) is the pattern period
	devices  int
}

// NewCyclic returns a cyclic-pattern mapper over the given device order.
func NewCyclic(unitSize int64, order []int) *Cyclic {
	if unitSize <= 0 || len(order) == 0 {
		panic("stripe: bad cyclic geometry")
	}
	max := 0
	for _, d := range order {
		if d < 0 {
			panic("stripe: negative device in cyclic order")
		}
		if d > max {
			max = d
		}
	}
	return &Cyclic{UnitSize: unitSize, Order: append([]int(nil), order...), devices: max + 1}
}

// NumDevices implements Mapper.
func (m *Cyclic) NumDevices() int { return m.devices }

// Map implements Mapper.
func (m *Cyclic) Map(off, length int64) []Extent {
	period := int64(len(m.Order))
	// Count, for each device, how many of the first k pattern slots map to
	// it; device offsets advance once per occurrence in the pattern.
	var out []Extent
	for length > 0 {
		u := off / m.UnitSize
		inUnit := off % m.UnitSize
		n := m.UnitSize - inUnit
		if n > length {
			n = length
		}
		slot := u % period
		cycle := u / period
		dev := m.Order[slot]
		// occurrences of dev in pattern slots [0, slot)
		var before int64
		for i := int64(0); i < slot; i++ {
			if m.Order[i] == dev {
				before++
			}
		}
		var perCycle int64
		for _, d := range m.Order {
			if d == dev {
				perCycle++
			}
		}
		out = append(out, Extent{
			Dev:    dev,
			Off:    off,
			DevOff: (cycle*perCycle+before)*m.UnitSize + inUnit,
			Len:    n,
		})
		off += n
		length -= n
	}
	return coalesce(out)
}

// ReadMap implements Mapper.
func (m *Cyclic) ReadMap(off, length, _ int64) []Extent { return m.Map(off, length) }

// VariableStripe uses a repeating sequence of unit sizes, one per device in
// order (Exedra-style variable stripe size, paper §4.3 [24]): device i holds
// units of Sizes[i], and the pattern of len(Sizes) units repeats.
type VariableStripe struct {
	Sizes []int64
	total int64
	// prefix[i] is the logical offset of device i's unit within one pattern.
	prefix []int64
}

// NewVariableStripe returns a variable-stripe mapper.
func NewVariableStripe(sizes []int64) *VariableStripe {
	if len(sizes) == 0 {
		panic("stripe: variable stripe needs at least one size")
	}
	m := &VariableStripe{Sizes: append([]int64(nil), sizes...)}
	m.prefix = make([]int64, len(sizes)+1)
	for i, s := range sizes {
		if s <= 0 {
			panic("stripe: non-positive variable stripe size")
		}
		m.prefix[i+1] = m.prefix[i] + s
	}
	m.total = m.prefix[len(sizes)]
	return m
}

// NumDevices implements Mapper.
func (m *VariableStripe) NumDevices() int { return len(m.Sizes) }

// Map implements Mapper.
func (m *VariableStripe) Map(off, length int64) []Extent {
	var out []Extent
	for length > 0 {
		cycle := off / m.total
		inCycle := off % m.total
		// Find the device whose unit contains inCycle.
		dev := sort.Search(len(m.Sizes), func(i int) bool { return m.prefix[i+1] > inCycle })
		inUnit := inCycle - m.prefix[dev]
		n := m.Sizes[dev] - inUnit
		if n > length {
			n = length
		}
		out = append(out, Extent{
			Dev:    dev,
			Off:    off,
			DevOff: cycle*m.Sizes[dev] + inUnit,
			Len:    n,
		})
		off += n
		length -= n
	}
	return coalesce(out)
}

// ReadMap implements Mapper.
func (m *VariableStripe) ReadMap(off, length, _ int64) []Extent { return m.Map(off, length) }

// Replicated stores Copies full replicas of a round-robin stripe, device
// space partitioned per replica: replica r uses devices [r*Inner.Devices,
// (r+1)*Inner.Devices).  Writes go to all replicas; reads pick one.
type Replicated struct {
	Inner  *RoundRobin
	Copies int
}

// NewReplicated returns copies replicas of a round-robin stripe of unit-byte
// units over devices devices in all.  It refuses a copy count that does not
// divide the devices and leaves the refusal's meaning to the caller: pnfs
// answers it as a bad layout, pvfs falls back to plain round-robin.
func NewReplicated(unit int64, devices, copies int) (*Replicated, error) {
	if copies <= 0 || devices%copies != 0 {
		return nil, fmt.Errorf("stripe: %d devices not divisible into %d replicas", devices, copies)
	}
	return &Replicated{Inner: NewRoundRobin(unit, devices/copies), Copies: copies}, nil
}

// NumDevices implements Mapper.
func (m *Replicated) NumDevices() int { return m.Inner.Devices * m.Copies }

// Map implements Mapper: every replica gets a copy of each byte.
func (m *Replicated) Map(off, length int64) []Extent {
	base := m.Inner.Map(off, length)
	out := make([]Extent, 0, len(base)*m.Copies)
	for r := 0; r < m.Copies; r++ {
		shift := r * m.Inner.Devices
		for _, e := range base {
			e.Dev += shift
			out = append(out, e)
		}
	}
	return out
}

// ReadMap implements Mapper: one replica per read, chosen by seed.
func (m *Replicated) ReadMap(off, length, seed int64) []Extent {
	r := int(seed % int64(m.Copies))
	if r < 0 {
		r += m.Copies
	}
	base := m.Inner.Map(off, length)
	shift := r * m.Inner.Devices
	out := make([]Extent, len(base))
	for i, e := range base {
		e.Dev += shift
		out[i] = e
	}
	return out
}

// LogicalEnd delegates to the round-robin size reconstruction: replicas
// hold identical stripe objects, so a device's object size implies the same
// logical end as its counterpart in the first replica.
func (m *Replicated) LogicalEnd(dev int, objSize int64) int64 {
	return m.Inner.LogicalEnd(dev%m.Inner.Devices, objSize)
}

// ReplicaDev returns the device that holds replica r of what device dev
// holds: the same round-robin device in replica r's device range.
func (m *Replicated) ReplicaDev(dev, r int) int {
	n := m.Inner.Devices
	return dev%n + r*n
}

// Alternates returns e re-based onto every other replica's device, in
// replica order.  DevOff is unchanged — replicas hold identical stripe
// objects — so an issuer can retry a failed read extent on each alternate
// in turn (the replica→replica failover ladder) before falling back to its
// MDS-proxy rung.  Extents not addressed to one of this mapper's devices
// (e.g. the Dev<0 MDS sentinel) have no alternates.
func (m *Replicated) Alternates(e Extent) []Extent {
	n := m.Inner.Devices
	if m.Copies < 2 || e.Dev < 0 || e.Dev >= n*m.Copies {
		return nil
	}
	out := make([]Extent, 0, m.Copies-1)
	for r := 0; r < m.Copies; r++ {
		if d := m.ReplicaDev(e.Dev, r); d != e.Dev {
			alt := e
			alt.Dev = d
			out = append(out, alt)
		}
	}
	return out
}

// Hierarchical stripes across groups with an outer unit, then across the
// devices within each group with an inner unit (Clusterfile-style nested
// striping, paper §4.3 [26]).  Group g owns devices [g*PerGroup,
// (g+1)*PerGroup).
type Hierarchical struct {
	OuterUnit int64 // bytes handed to one group at a time
	InnerUnit int64 // striping unit within a group
	Groups    int
	PerGroup  int
}

// NewHierarchical returns a nested striping mapper.  OuterUnit must be a
// multiple of InnerUnit.
func NewHierarchical(outerUnit, innerUnit int64, groups, perGroup int) *Hierarchical {
	if outerUnit <= 0 || innerUnit <= 0 || groups <= 0 || perGroup <= 0 || outerUnit%innerUnit != 0 {
		panic("stripe: bad hierarchical geometry")
	}
	return &Hierarchical{OuterUnit: outerUnit, InnerUnit: innerUnit, Groups: groups, PerGroup: perGroup}
}

// NumDevices implements Mapper.
func (m *Hierarchical) NumDevices() int { return m.Groups * m.PerGroup }

// Map implements Mapper.
func (m *Hierarchical) Map(off, length int64) []Extent {
	var out []Extent
	inner := NewRoundRobin(m.InnerUnit, m.PerGroup)
	for length > 0 {
		ou := off / m.OuterUnit
		inOuter := off % m.OuterUnit
		n := m.OuterUnit - inOuter
		if n > length {
			n = length
		}
		group := int(ou % int64(m.Groups))
		groupCycle := ou / int64(m.Groups)
		// Within the group, the outer unit occupies a contiguous
		// group-local space striped by the inner mapper.
		for _, e := range inner.Map(groupCycle*m.OuterUnit+inOuter, n) {
			out = append(out, Extent{
				Dev:    group*m.PerGroup + e.Dev,
				Off:    off + (e.Off - (groupCycle*m.OuterUnit + inOuter)),
				DevOff: e.DevOff,
				Len:    e.Len,
			})
		}
		off += n
		length -= n
	}
	return coalesce(out)
}

// ReadMap implements Mapper.
func (m *Hierarchical) ReadMap(off, length, _ int64) []Extent { return m.Map(off, length) }

// coalesce merges adjacent extents that are contiguous in both logical and
// device space on the same device, preserving order.
func coalesce(in []Extent) []Extent {
	if len(in) < 2 {
		return in
	}
	out := in[:1]
	for _, e := range in[1:] {
		last := &out[len(out)-1]
		if e.Dev == last.Dev && e.Off == last.Off+last.Len && e.DevOff == last.DevOff+last.Len {
			last.Len += e.Len
			continue
		}
		out = append(out, e)
	}
	return out
}
