package stripe

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// checkCoverage verifies that extents cover [off, off+n) exactly once per
// copy, in logical order, with non-negative device offsets and valid device
// indices.
func checkCoverage(t *testing.T, m Mapper, off, n int64, extents []Extent, copies int) {
	t.Helper()
	covered := make(map[int64]int) // logical byte (sampled) -> copies seen
	var total int64
	for _, e := range extents {
		if e.Len <= 0 {
			t.Fatalf("%T: non-positive extent %+v", m, e)
		}
		if e.Dev < 0 || e.Dev >= m.NumDevices() {
			t.Fatalf("%T: device %d out of range [0,%d)", m, e.Dev, m.NumDevices())
		}
		if e.DevOff < 0 {
			t.Fatalf("%T: negative device offset %+v", m, e)
		}
		if e.Off < off || e.Off+e.Len > off+n {
			t.Fatalf("%T: extent %+v outside [%d,%d)", m, e, off, off+n)
		}
		total += e.Len
		for b := e.Off; b < e.Off+e.Len; b += 997 { // sample coverage
			covered[b]++
		}
	}
	if total != n*int64(copies) {
		t.Fatalf("%T: extents cover %d bytes, want %d×%d", m, total, n, copies)
	}
	for b, c := range covered {
		if c != copies {
			t.Fatalf("%T: byte %d covered %d times, want %d", m, b, c, copies)
		}
	}
}

// checkNoDeviceOverlap verifies no two extents overlap in device space.
func checkNoDeviceOverlap(t *testing.T, m Mapper, extents []Extent) {
	t.Helper()
	type devRange struct{ lo, hi int64 }
	byDev := make(map[int][]devRange)
	for _, e := range extents {
		for _, r := range byDev[e.Dev] {
			if e.DevOff < r.hi && r.lo < e.DevOff+e.Len {
				t.Fatalf("%T: device %d ranges overlap: [%d,%d) and [%d,%d)",
					m, e.Dev, r.lo, r.hi, e.DevOff, e.DevOff+e.Len)
			}
		}
		byDev[e.Dev] = append(byDev[e.Dev], devRange{e.DevOff, e.DevOff + e.Len})
	}
}

func TestRoundRobinBasics(t *testing.T) {
	m := NewRoundRobin(100, 4)
	ext := m.Map(0, 1000)
	checkCoverage(t, m, 0, 1000, ext, 1)
	checkNoDeviceOverlap(t, m, ext)
	// Unit 0 → dev 0 @ 0; unit 5 → dev 1 @ 100.
	got := m.Map(500, 100)
	if len(got) != 1 || got[0].Dev != 1 || got[0].DevOff != 100 {
		t.Fatalf("unit 5: %+v", got)
	}
}

func TestRoundRobinUnalignedRange(t *testing.T) {
	m := NewRoundRobin(100, 3)
	ext := m.Map(250, 120) // spans units 2 (50 bytes), 3 (70 bytes)
	checkCoverage(t, m, 250, 120, ext, 1)
	if ext[0].Dev != 2 || ext[0].DevOff != 50 || ext[0].Len != 50 {
		t.Fatalf("first extent %+v", ext[0])
	}
	if ext[1].Dev != 0 || ext[1].DevOff != 100 || ext[1].Len != 70 {
		t.Fatalf("second extent %+v", ext[1])
	}
}

func TestRoundRobinCoalescesSingleDevice(t *testing.T) {
	m := NewRoundRobin(100, 1)
	ext := m.Map(0, 1000) // one device: must coalesce to a single extent
	if len(ext) != 1 || ext[0].Len != 1000 {
		t.Fatalf("single-device map not coalesced: %+v", ext)
	}
}

func TestCyclicMatchesRoundRobinForIdentityOrder(t *testing.T) {
	rr := NewRoundRobin(64, 4)
	cy := NewCyclic(64, []int{0, 1, 2, 3})
	for _, r := range [][2]int64{{0, 1000}, {37, 555}, {1000, 64}, {63, 2}} {
		a := rr.Map(r[0], r[1])
		b := cy.Map(r[0], r[1])
		if len(a) != len(b) {
			t.Fatalf("range %v: %d vs %d extents", r, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("range %v extent %d: %+v vs %+v", r, i, a[i], b[i])
			}
		}
	}
}

func TestCyclicSkewedPattern(t *testing.T) {
	// Device 0 appears twice per period: it holds units 0,1 then 3,4...
	m := NewCyclic(10, []int{0, 0, 1})
	ext := m.Map(0, 60)
	checkCoverage(t, m, 0, 60, ext, 1)
	checkNoDeviceOverlap(t, m, ext)
	// Unit 3 (offset 30) is pattern slot 0 of cycle 1 → dev 0, and dev 0 has
	// 2 units per cycle, so DevOff = (1*2+0)*10 = 20.
	got := m.Map(30, 10)
	if got[0].Dev != 0 || got[0].DevOff != 20 {
		t.Fatalf("unit 3: %+v", got[0])
	}
}

func TestVariableStripe(t *testing.T) {
	m := NewVariableStripe([]int64{100, 200, 50})
	ext := m.Map(0, 700) // two full cycles
	checkCoverage(t, m, 0, 700, ext, 1)
	checkNoDeviceOverlap(t, m, ext)
	// Second cycle: offset 350 begins device 0's second unit.
	got := m.Map(350, 100)
	if got[0].Dev != 0 || got[0].DevOff != 100 || got[0].Len != 100 {
		t.Fatalf("cycle 2 dev 0: %+v", got)
	}
	// Offset 450 is device 1's second unit.
	got = m.Map(450, 10)
	if got[0].Dev != 1 || got[0].DevOff != 200 {
		t.Fatalf("cycle 2 dev 1: %+v", got)
	}
}

// newReplicated builds a replicated mapper the test's geometry must allow.
func newReplicated(t *testing.T, unit int64, devices, copies int) *Replicated {
	t.Helper()
	m, err := NewReplicated(unit, devices, copies)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReplicatedRefusesIndivisibleGeometry pins the one check every
// replicated mapper passes: the copies divide the devices, each replica a
// round-robin stripe over its share.
func TestReplicatedRefusesIndivisibleGeometry(t *testing.T) {
	for _, c := range []struct{ devices, copies int }{{5, 2}, {6, 0}, {6, -1}, {2, 3}} {
		if m, err := NewReplicated(100, c.devices, c.copies); err == nil {
			t.Errorf("%d devices into %d copies built %+v", c.devices, c.copies, m)
		}
	}
	m := newReplicated(t, 100, 6, 3)
	if m.Inner.Devices != 2 || m.Inner.UnitSize != 100 || m.Copies != 3 {
		t.Fatalf("6 devices into 3 copies: inner %+v, %d copies", *m.Inner, m.Copies)
	}
}

func TestReplicatedWritesAllCopies(t *testing.T) {
	m := newReplicated(t, 100, 6, 3)
	if m.NumDevices() != 6 {
		t.Fatalf("devices = %d, want 6", m.NumDevices())
	}
	ext := m.Map(0, 400)
	checkCoverage(t, m, 0, 400, ext, 3)
	checkNoDeviceOverlap(t, m, ext)
}

func TestReplicatedReadsPickOneCopy(t *testing.T) {
	m := newReplicated(t, 100, 6, 3)
	seen := make(map[int]bool)
	for seed := int64(0); seed < 12; seed++ {
		ext := m.ReadMap(0, 400, seed)
		checkCoverage(t, m, 0, 400, ext, 1)
		for _, e := range ext {
			seen[e.Dev/2] = true // replica index
		}
	}
	if len(seen) != 3 {
		t.Fatalf("read replica selection used %d of 3 replicas", len(seen))
	}
}

func TestAlternates(t *testing.T) {
	m := newReplicated(t, 100, 6, 3)
	e := Extent{Dev: 0, Off: 0, DevOff: 0, Len: 100}
	// The other two replicas of device 0 are 2 and 4, DevOff intact.
	all := m.Alternates(e)
	if len(all) != 2 || all[0].Dev != 2 || all[1].Dev != 4 || all[1].DevOff != e.DevOff || all[1].Len != e.Len {
		t.Fatalf("alternates = %+v, want devs 2 and 4", all)
	}
	// The MDS sentinel (Dev < 0) has no alternates.
	if got := m.Alternates(Extent{Dev: -1, Len: 100}); len(got) != 0 {
		t.Fatalf("sentinel extent grew alternates: %+v", got)
	}
}

func TestHierarchical(t *testing.T) {
	// 2 groups of 3 devices; outer 300 bytes per group, inner 100.
	m := NewHierarchical(300, 100, 2, 3)
	if m.NumDevices() != 6 {
		t.Fatalf("devices = %d", m.NumDevices())
	}
	ext := m.Map(0, 1200)
	checkCoverage(t, m, 0, 1200, ext, 1)
	checkNoDeviceOverlap(t, m, ext)
	// Bytes [0,300) go to group 0 striped over devs 0,1,2;
	// bytes [300,600) to group 1 over devs 3,4,5.
	for _, e := range m.Map(0, 300) {
		if e.Dev > 2 {
			t.Fatalf("outer unit 0 leaked to group 1: %+v", e)
		}
	}
	for _, e := range m.Map(300, 300) {
		if e.Dev < 3 {
			t.Fatalf("outer unit 1 leaked to group 0: %+v", e)
		}
	}
}

// referenceMap computes the device for each byte the slow way, for
// cross-checking round-robin.
func referenceRR(unit int64, devs int, off int64) (dev int, devOff int64) {
	u := off / unit
	return int(u % int64(devs)), (u/int64(devs))*unit + off%unit
}

func TestPropertyRoundRobinAgainstReference(t *testing.T) {
	f := func(unitRaw uint16, devsRaw uint8, offRaw uint32, lenRaw uint16) bool {
		unit := int64(unitRaw%4096) + 1
		devs := int(devsRaw%16) + 1
		off := int64(offRaw % (1 << 22))
		length := int64(lenRaw) + 1
		m := NewRoundRobin(unit, devs)
		for _, e := range m.Map(off, length) {
			// Verify first and last byte of each extent.
			for _, b := range []int64{e.Off, e.Off + e.Len - 1} {
				dev, devOff := referenceRR(unit, devs, b)
				if dev != e.Dev || devOff != e.DevOff+(b-e.Off) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: all mappers cover ranges exactly and without device overlap.
func TestPropertyAllMappersCover(t *testing.T) {
	mappers := []Mapper{
		NewRoundRobin(64<<10, 6),
		NewCyclic(64<<10, []int{0, 2, 4, 1, 3, 5}),
		NewVariableStripe([]int64{4 << 10, 64 << 10, 256 << 10}),
		newReplicated(t, 32<<10, 6, 2),
		NewHierarchical(256<<10, 64<<10, 2, 3),
	}
	rng := rand.New(rand.NewSource(11))
	for _, m := range mappers {
		copies := 1
		if r, ok := m.(*Replicated); ok {
			copies = r.Copies
		}
		for trial := 0; trial < 50; trial++ {
			off := rng.Int63n(1 << 30)
			n := rng.Int63n(4<<20) + 1
			ext := m.Map(off, n)
			checkCoverage(t, m, off, n, ext, copies)
			checkNoDeviceOverlap(t, m, ext)
			rext := m.ReadMap(off, n, rng.Int63())
			checkCoverage(t, m, off, n, rext, 1)
		}
	}
}

// Property: mapping a range in two halves equals mapping it whole (modulo
// coalescing at the split point) — verified byte-wise via total length and
// per-device byte counts.
func TestPropertySplitConsistency(t *testing.T) {
	m := NewRoundRobin(1000, 5)
	f := func(offRaw uint32, aRaw, bRaw uint16) bool {
		off := int64(offRaw % (1 << 20))
		a, b := int64(aRaw)+1, int64(bRaw)+1
		whole := m.Map(off, a+b)
		parts := append(m.Map(off, a), m.Map(off+a, b)...)
		perDev := func(ext []Extent) map[int]int64 {
			out := make(map[int]int64)
			for _, e := range ext {
				out[e.Dev] += e.Len
			}
			return out
		}
		w, p := perDev(whole), perDev(parts)
		if len(w) != len(p) {
			return false
		}
		for d, n := range w {
			if p[d] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { NewRoundRobin(0, 3) },
		func() { NewRoundRobin(100, 0) },
		func() { NewCyclic(0, []int{0}) },
		func() { NewCyclic(10, nil) },
		func() { NewVariableStripe(nil) },
		func() { NewVariableStripe([]int64{10, 0}) },
		func() { NewHierarchical(100, 33, 2, 2) }, // outer not multiple of inner
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad geometry did not panic", i)
				}
			}()
			fn()
		}()
	}
}
