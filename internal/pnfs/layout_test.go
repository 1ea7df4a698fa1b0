package pnfs

import (
	"fmt"
	"testing"
	"testing/quick"

	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
)

func sampleLayout() *FileLayout {
	return &FileLayout{
		Aggregation: AggRoundRobin,
		Params:      []int64{2 << 20},
		Devices:     []DeviceID{0, 1, 2, 3, 4, 5},
		FHs:         []uint64{9, 9, 9, 9, 9, 9},
		Direct:      true,
	}
}

func TestLayoutXDRRoundTrip(t *testing.T) {
	in := sampleLayout()
	var out FileLayout
	if err := xdr.Decode(xdr.Encode(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Aggregation != in.Aggregation || out.Direct != in.Direct ||
		len(out.Devices) != len(in.Devices) || out.Params[0] != in.Params[0] {
		t.Fatalf("round trip mangled layout: %+v", out)
	}
	for i := range in.Devices {
		if out.Devices[i] != in.Devices[i] || out.FHs[i] != in.FHs[i] {
			t.Fatalf("device %d mangled", i)
		}
	}
}

// TestSameGeometry: a layout has its own geometry and a decoded copy's,
// and a change to its aggregation, params, devices or file handles makes
// another one.
func TestSameGeometry(t *testing.T) {
	in := sampleLayout()
	var out FileLayout
	if err := xdr.Decode(xdr.Encode(in), &out); err != nil {
		t.Fatal(err)
	}
	if !in.SameGeometry(in) || !in.SameGeometry(&out) {
		t.Fatal("a layout and its decoded copy differ in geometry")
	}
	for name, change := range map[string]func(l *FileLayout){
		"aggregation": func(l *FileLayout) { l.Aggregation = AggCyclic },
		"params":      func(l *FileLayout) { l.Params = append(l.Params, 1) },
		"devices":     func(l *FileLayout) { l.Devices[0]++ },
		"file handle": func(l *FileLayout) { l.FHs[len(l.FHs)-1]++ },
	} {
		moved := sampleLayout()
		change(moved)
		if in.SameGeometry(moved) || moved.SameGeometry(in) {
			t.Errorf("a layout with another %s has the same geometry", name)
		}
	}
}

func TestPropertyLayoutXDRRoundTrip(t *testing.T) {
	f := func(agg string, params []int64, ndev uint8, direct bool) bool {
		n := int(ndev%16) + 1
		in := &FileLayout{Aggregation: agg, Params: params, Direct: direct}
		for i := 0; i < n; i++ {
			in.Devices = append(in.Devices, DeviceID(i))
			in.FHs = append(in.FHs, uint64(i)*7+1)
		}
		var out FileLayout
		if err := xdr.Decode(xdr.Encode(in), &out); err != nil {
			return false
		}
		if out.Aggregation != in.Aggregation || out.Direct != in.Direct {
			return false
		}
		if len(out.Params) != len(in.Params) || len(out.Devices) != len(in.Devices) {
			return false
		}
		for i := range in.Params {
			if out.Params[i] != in.Params[i] {
				return false
			}
		}
		for i := range in.Devices {
			if out.Devices[i] != in.Devices[i] || out.FHs[i] != in.FHs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMapperStandardSchemes(t *testing.T) {
	l := sampleLayout()
	m, err := l.Mapper()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*stripe.RoundRobin); !ok || m.NumDevices() != 6 {
		t.Fatalf("unexpected mapper %T/%d", m, m.NumDevices())
	}

	cy := &FileLayout{
		Aggregation: AggCyclic,
		Params:      []int64{1 << 20, 0, 2, 4, 1, 3, 5},
		Devices:     []DeviceID{0, 1, 2, 3, 4, 5},
		FHs:         make([]uint64, 6),
	}
	m, err = cy.Mapper()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*stripe.Cyclic); !ok {
		t.Fatalf("cyclic mapper is %T", m)
	}
}

func TestMapperPluggableDrivers(t *testing.T) {
	cases := []struct {
		agg    string
		params []int64
		ndev   int
		want   string
	}{
		{AggVariableStripe, []int64{4 << 10, 64 << 10, 1 << 20}, 3, "*stripe.VariableStripe"},
		{AggReplicated, []int64{2, 1 << 20}, 6, "*stripe.Replicated"},
		{AggHierarchical, []int64{4 << 20, 1 << 20, 2}, 6, "*stripe.Hierarchical"},
	}
	for _, c := range cases {
		l := &FileLayout{Aggregation: c.agg, Params: c.params,
			Devices: make([]DeviceID, c.ndev), FHs: make([]uint64, c.ndev)}
		m, err := l.Mapper()
		if err != nil {
			t.Fatalf("%s: %v", c.agg, err)
		}
		if got := fmt.Sprintf("%T", m); got != c.want {
			t.Errorf("%s: mapper %s, want %s", c.agg, got, c.want)
		}
		// The driver must cover a byte range over all its devices.
		var ext []stripe.Extent = m.Map(0, 32<<20)
		var total int64
		for _, e := range ext {
			total += e.Len
		}
		if total < 32<<20 {
			t.Errorf("%s: map covered %d of %d bytes", c.agg, total, 32<<20)
		}
	}
}

func TestMapperErrors(t *testing.T) {
	cases := []*FileLayout{
		{Aggregation: AggRoundRobin, Params: nil, Devices: []DeviceID{0}, FHs: []uint64{1}},
		{Aggregation: "alien-scheme", Devices: []DeviceID{0}, FHs: []uint64{1}},
		{Aggregation: AggRoundRobin, Params: []int64{1 << 20}},                                                          // no devices
		{Aggregation: AggReplicated, Params: []int64{4, 1 << 20}, Devices: make([]DeviceID, 6), FHs: make([]uint64, 6)}, // 6 % 4 != 0
	}
	for i, l := range cases {
		if m, err := l.Mapper(); err == nil || m != nil {
			t.Errorf("case %d: bad layout produced mapper %#v, error %v", i, m, err)
		}
	}
}

func TestValidateChecksParity(t *testing.T) {
	l := sampleLayout()
	l.FHs = l.FHs[:3]
	if err := l.Validate(); err == nil {
		t.Fatal("device/FH count mismatch not caught")
	}
}

func TestTranslate(t *testing.T) {
	native := NativeLayout{
		Aggregation:  AggRoundRobin,
		Params:       []int64{2 << 20},
		Devices:      []DeviceID{4, 0, 7},
		ObjectHandle: 42,
	}
	l, err := Translate(native)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Direct {
		t.Fatal("translated layout must be direct")
	}
	for i, want := range []DeviceID{4, 0, 7} {
		if l.Devices[i] != want || l.FHs[i] != 42 {
			t.Fatalf("device %d: %v/%v", i, l.Devices[i], l.FHs[i])
		}
	}
	// The translator preserves the aggregation untouched (it never
	// interprets parallel-FS internals).
	if l.Aggregation != native.Aggregation || l.Params[0] != native.Params[0] {
		t.Fatal("translator altered aggregation parameters")
	}
	// The layout owns its slices: the placement it came from may change.
	native.Devices[0], native.Params[0] = 9, 1
	if l.Devices[0] != 4 || l.Params[0] != 2<<20 {
		t.Fatal("translated layout shares memory with the placement")
	}
}

// TestTranslateRejectsInvalidLayout: a placement no aggregation driver can
// follow — no devices, or a driver's params that do not fit its devices —
// is refused by the translator rather than handed to a client.
func TestTranslateRejectsInvalidLayout(t *testing.T) {
	for _, native := range []NativeLayout{
		{Aggregation: AggRoundRobin, Params: []int64{1 << 20}},
		{Aggregation: AggVariableStripe, Params: []int64{1 << 20, 2 << 20}, Devices: []DeviceID{0, 1, 2}},
		{Aggregation: "no-such-driver", Devices: []DeviceID{0}},
	} {
		if _, err := Translate(native); err == nil {
			t.Errorf("%s over %d devices with params %v was not rejected", native.Aggregation, len(native.Devices), native.Params)
		}
	}
}

// Property: a translated direct layout maps byte ranges identically to the
// parallel file system's own mapper — the invariant Direct-pNFS relies on
// for direct access.
func TestPropertyTranslatedLayoutMatchesNative(t *testing.T) {
	f := func(offRaw uint32, lenRaw uint16) bool {
		native := NativeLayout{
			Aggregation:  AggRoundRobin,
			Params:       []int64{64 << 10},
			Devices:      []DeviceID{0, 1, 2, 3},
			ObjectHandle: 7,
		}
		l, err := Translate(native)
		if err != nil {
			return false
		}
		lm, err := l.Mapper()
		if err != nil {
			return false
		}
		nm := stripe.NewRoundRobin(64<<10, 4)
		off, n := int64(offRaw%(1<<24)), int64(lenRaw)+1
		a, b := lm.Map(off, n), nm.Map(off, n)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
