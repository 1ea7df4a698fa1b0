package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter %d, want 42", got)
	}
	g := r.Gauge("occupancy", "in flight")
	g.Set(5)
	g.Add(-2)
	g.Dec()
	g.Inc()
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge %d, want 3", got)
	}
}

func TestVecChildrenAreStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ops_total", "ops", "op")
	a := v.With("READ")
	b := v.With("READ")
	if a != b {
		t.Fatal("same label values must return the same child")
	}
	v.With("WRITE").Add(3)
	if a.Value() != 0 {
		t.Fatal("children must be independent")
	}
	// Re-registering the same family returns the same children.
	if r.CounterVec("ops_total", "ops", "op").With("READ") != a {
		t.Fatal("re-registration must find the existing family")
	}
}

// TestWithLabelViews proves labeled views share one family table while
// keeping their series distinct — the mechanism that attributes a shared
// sweep registry per architecture.
func TestWithLabelViews(t *testing.T) {
	root := NewRegistry()
	a := root.WithLabel("arch", "direct-pnfs")
	b := root.WithLabel("arch", "pvfs2")
	a.CounterVec("ops_total", "ops", "op").With("READ").Add(3)
	b.CounterVec("ops_total", "ops", "op").With("READ").Add(5)

	var sb strings.Builder
	if err := root.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`ops_total{arch="direct-pnfs",op="READ"} 3`,
		`ops_total{arch="pvfs2",op="READ"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Unlabeled instruments through a view still get the base label.
	a.Counter("plain_total", "").Inc()
	snap := root.Snapshot()
	for _, m := range snap.Metrics {
		if m.Name == "plain_total" && m.Series[0].Labels["arch"] != "direct-pnfs" {
			t.Errorf("plain_total series lacks the view's base label: %+v", m.Series[0])
		}
	}
	// A nil registry still yields working views.
	var nilReg *Registry
	nilReg.WithLabel("arch", "x").Counter("discarded_view_total", "").Inc()
}

func TestSchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	arch := r.WithLabel("arch", "a")
	r.Counter("x_total", "x")
	arch.CounterVec("y_total", "y", "op")
	for _, tc := range []struct {
		name     string
		register func()
	}{
		{"kind", func() { r.Gauge("x_total", "x") }},
		{"extra label", func() { r.CounterVec("x_total", "x", "op") }},
		{"missing base label", func() { r.CounterVec("y_total", "y", "op") }},
		{"other base label", func() { r.WithLabel("node", "a").CounterVec("y_total", "y", "op") }},
		{"base and own labels swapped", func() { r.WithLabel("op", "a").CounterVec("y_total", "y", "arch") }},
		{"other own label", func() { arch.CounterVec("y_total", "y", "proc") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("schema mismatch should panic")
				}
			}()
			tc.register()
		})
	}
	// The same schema split differently between view and call is the same
	// schema.
	r.CounterVec("y_total", "y", "arch", "op")
	r.WithLabel("arch", "b").WithLabel("op", "c").CounterVec("y_total", "y")
}

// TestExistingSeriesAllocatesNothing pins the lookup path every cluster
// build takes thousands of times: finding a family that exists, and a
// series that exists, allocates nothing, through a plain registry and
// through a labelled view alike.
func TestExistingSeriesAllocatesNothing(t *testing.T) {
	for name, reg := range map[string]*Registry{
		"plain": NewRegistry(),
		"view":  NewRegistry().WithLabel("arch", "direct-pnfs"),
	} {
		t.Run(name, func(t *testing.T) {
			resolve := func() {
				reg.CounterVec("ops_total", "ops", "transport", "op").With("sim", "read").Inc()
				reg.HistogramVec("op_seconds", "latency", DurationBuckets, "transport", "op").
					With("sim", "read").Observe(1e-3)
				reg.GaugeVec("busy", "busy", "service").With("nfs").Inc()
				reg.Counter("calls_total", "calls").Inc()
			}
			resolve() // creates the families and series
			counters := reg.CounterVec("ops_total", "ops", "transport", "op")
			if allocs := testing.AllocsPerRun(100, resolve); allocs != 0 {
				t.Errorf("re-registering and resolving existing series: %v allocations, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() { counters.With("sim", "read").Inc() }); allocs != 0 {
				t.Errorf("With on an existing series: %v allocations, want 0", allocs)
			}
			// One count from the first resolve, and AllocsPerRun makes 101
			// calls of each function.
			if got := counters.With("sim", "read").Value(); got != 203 {
				t.Errorf("the series counted %d, want 203: a lookup resolved another series", got)
			}
		})
	}
}

func TestNilRegistryDiscards(t *testing.T) {
	var r *Registry
	c := r.Counter("discarded_total", "never rendered")
	c.Inc() // must not crash
	h := r.Histogram("discarded_seconds", "never rendered", nil)
	h.Observe(0.5)
	if c.Value() != 1 || h.Count() != 1 {
		t.Fatal("nil-registry instruments must still record")
	}
}

func TestHistogramStatistics(t *testing.T) {
	h := newHistogram(DurationBuckets)
	for i := 0; i < 90; i++ {
		h.ObserveDuration(50 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.ObserveDuration(50 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if got, want := h.Max(), 0.05; got != want {
		t.Fatalf("max %v, want %v", got, want)
	}
	if p50 := h.Quantile(0.50); p50 > 1e-3 {
		t.Fatalf("p50 %v, want ≤ 100µs bucket bound", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 0.03 {
		t.Fatalf("p99 %v, want the slow bucket", p99)
	}
	if m := h.Mean(); m <= 50e-6 || m >= 50e-3 {
		t.Fatalf("mean %v outside (50µs, 50ms)", m)
	}
}

func TestHistogramOverflowBucketUsesMax(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(10)
	if got := h.Quantile(0.99); got != 10 {
		t.Fatalf("overflow quantile %v, want the max observation", got)
	}
}

// TestConcurrentRecording hammers one counter, one gauge, and one histogram
// from many goroutines; run under -race this is the registry's thread-safety
// proof, and the totals prove no update is lost.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("conc_total", "c", "side").With("a")
	g := r.Gauge("conc_gauge", "g")
	h := r.Histogram("conc_seconds", "h", DurationBuckets)

	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i%7) * 1e-4)
			}
		}(w)
	}
	// A concurrent reader must never block or corrupt writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	const total = workers * perWorker
	if c.Value() != total {
		t.Fatalf("counter lost updates: %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Fatalf("gauge lost updates: %d, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram lost observations: %d, want %d", h.Count(), total)
	}
	var want float64
	for i := 0; i < perWorker; i++ {
		want += float64(i%7) * 1e-4
	}
	want *= workers
	if diff := math.Abs(h.Sum() - want); diff > 1e-6 {
		t.Fatalf("histogram sum %v, want %v (diff %v)", h.Sum(), want, diff)
	}
}

// TestPrometheusTextGolden pins the exposition format byte for byte.
func TestPrometheusTextGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("rpc_calls_total", "RPC calls issued.", "service").With("nfs-mds").Add(7)
	r.Gauge("pool_in_flight", "Calls in flight.").Set(3)
	h := r.Histogram("call_seconds", "Round-trip latency.", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP call_seconds Round-trip latency.
# TYPE call_seconds histogram
call_seconds_bucket{le="0.001"} 1
call_seconds_bucket{le="0.1"} 2
call_seconds_bucket{le="+Inf"} 3
call_seconds_sum 2.0505
call_seconds_count 3
# HELP pool_in_flight Calls in flight.
# TYPE pool_in_flight gauge
pool_in_flight 3
# HELP rpc_calls_total RPC calls issued.
# TYPE rpc_calls_total counter
rpc_calls_total{service="nfs-mds"} 7
`
	if sb.String() != want {
		t.Fatalf("exposition format drifted:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "", "path").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", sb.String())
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "requests served").Add(9)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != TextContentType {
		t.Fatalf("content type %q", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := res.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "served_total 9") {
		t.Fatalf("endpoint output missing metric:\n%s", sb.String())
	}
}

func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("snap_total", "help", "op").With("READ").Add(5)
	h := r.Histogram("snap_seconds", "", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(100)

	snap := r.Snapshot()
	if len(snap.Metrics) != 2 {
		t.Fatalf("families %d, want 2", len(snap.Metrics))
	}
	hist := snap.Metrics[0]
	if hist.Name != "snap_seconds" || hist.Type != "histogram" {
		t.Fatalf("unexpected first family %+v (sorted by name)", hist)
	}
	s := hist.Series[0]
	if s.Count != 2 || s.Sum != 100.5 || s.Max != 100 {
		t.Fatalf("histogram series %+v", s)
	}
	// 0.5 falls in le=1; 100 falls in the omitted +Inf bucket (== Count).
	if len(s.Buckets) != 2 || s.Buckets[0].Cumulative != 1 || s.Buckets[1].Cumulative != 1 {
		t.Fatalf("buckets %+v", s.Buckets)
	}
	ctr := snap.Metrics[1]
	if ctr.Series[0].Labels["op"] != "READ" || ctr.Series[0].Value != 5 {
		t.Fatalf("counter series %+v", ctr.Series[0])
	}
}

// TestSnapshotTotals: Total and HistTotal sum a family over every label
// series (registries narrowed WithLabel included), and an absent family —
// or a family of the other kind — totals zero.
func TestSnapshotTotals(t *testing.T) {
	r := NewRegistry()
	ops := r.WithLabel("arch", "pvfs2").CounterVec("ops_total", "", "op")
	ops.With("READ").Add(5)
	ops.With("WRITE").Add(7)
	r.WithLabel("arch", "nfsv4").CounterVec("ops_total", "", "op").With("READ").Add(30)
	r.Gauge("depth", "").Set(4)
	lat := r.HistogramVec("lat_seconds", "", []float64{1}, "op")
	lat.With("READ").Observe(0.5)
	lat.With("READ").Observe(2)
	lat.With("WRITE").Observe(4)

	snap := r.Snapshot()
	if got := snap.Total("ops_total"); got != 42 {
		t.Errorf("Total(ops_total) = %v, want 42", got)
	}
	if got := snap.Total("depth"); got != 4 {
		t.Errorf("Total(depth) = %v, want 4", got)
	}
	if sum, n := snap.HistTotal("lat_seconds"); sum != 6.5 || n != 3 {
		t.Errorf("HistTotal(lat_seconds) = (%v, %d), want (6.5, 3)", sum, n)
	}
	if got := snap.Total("absent_total"); got != 0 {
		t.Errorf("Total of an absent family = %v", got)
	}
	if sum, n := snap.HistTotal("ops_total"); sum != 0 || n != 0 {
		t.Errorf("HistTotal of a counter family = (%v, %d)", sum, n)
	}
	if got := snap.Total("lat_seconds"); got != 0 {
		t.Errorf("Total of a histogram family = %v", got)
	}
}
