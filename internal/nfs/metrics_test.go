package nfs

import (
	"strings"
	"testing"
	"time"

	"dpnfs/internal/fserr"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

func TestMetricsRecordAndPercentiles(t *testing.T) {
	m := newOpStats(metrics.NewRegistry())
	for i := 0; i < 90; i++ {
		m.record(OpNumRead, 50*time.Microsecond, 0, nil)
	}
	for i := 0; i < 10; i++ {
		m.record(OpNumRead, 50*time.Millisecond, 0, nil)
	}
	om := m.perOp[OpNumRead]
	if om == nil || om.ops.Value() != 100 || om.lat.Count() != 100 {
		t.Fatalf("op series %+v", om)
	}
	if om.lat.Max() != 0.05 {
		t.Fatalf("max %v s", om.lat.Max())
	}
	if p50 := om.lat.Quantile(0.5); p50 > 1e-3 {
		t.Fatalf("p50 %v s, want ≤ 100µs bucket", p50)
	}
	if p99 := om.lat.Quantile(0.99); p99 < 0.03 {
		t.Fatalf("p99 %v s, want the slow bucket", p99)
	}
	if m := om.lat.Mean(); m <= 50e-6 || m >= 0.05 {
		t.Fatalf("mean %v s outside (50µs, 50ms)", m)
	}
}

func TestMetricsErrorsCounted(t *testing.T) {
	m := newOpStats(metrics.NewRegistry())
	m.record(OpNumWrite, time.Millisecond, 0, nil)
	m.record(OpNumWrite, time.Millisecond, 0, fserr.ErrIO)
	if got := m.perOp[OpNumWrite].errs.Value(); got != 1 {
		t.Fatalf("errors %d", got)
	}
	if m.perOp[OpNumCommit] != nil {
		t.Fatal("a never-issued op resolved its series")
	}
}

func TestClientMetricsThroughMount(t *testing.T) {
	m := newTestMount(t, false)
	m.run(t, func(ctx *rpc.Ctx) {
		f, err := m.client.Create(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		m.client.Write(ctx, f, 0, payload.Synthetic(4<<20))
		if err := m.client.Close(ctx, f); err != nil {
			t.Fatal(err)
		}
	})
	ops := m.client.ops.perOp
	w := ops[OpNumWrite]
	if w == nil || w.ops.Value() == 0 {
		t.Fatal("WRITE ops not recorded")
	}
	if got := w.bytes.Value(); got != 4<<20 {
		t.Fatalf("WRITE bytes %d, want %d", got, 4<<20)
	}
	if ops[OpNumCommit] == nil || ops[OpNumOpen] == nil {
		t.Fatal("COMMIT or OPEN not recorded")
	}
	if w.lat.Mean() <= 0 {
		t.Fatal("no latency recorded under simulation")
	}
}

// TestMountSharedRegistry proves the mount records into the shared
// registry: its operations are what a /metrics endpoint exports.
func TestMountSharedRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	m := newTestMountWithRegistry(t, reg)
	m.run(t, func(ctx *rpc.Ctx) {
		f, err := m.client.Create(ctx, "/g")
		if err != nil {
			t.Fatal(err)
		}
		m.client.Write(ctx, f, 0, payload.Synthetic(2<<20))
		if err := m.client.Close(ctx, f); err != nil {
			t.Fatal(err)
		}
	})
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`nfs_client_ops_total{op="WRITE"}`,
		`nfs_client_op_bytes_total{op="WRITE"} 2097152`,
		`nfs_client_op_seconds_bucket{op="COMMIT",le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("registry exposition missing %q:\n%s", want, out)
		}
	}
}

func TestOpNamesCoverAllOps(t *testing.T) {
	for num, row := range opTable {
		if row.op != nil && strings.HasPrefix(opName(uint32(num)), "OP_") {
			t.Errorf("operation %d has no name", num)
		}
	}
	if !strings.HasPrefix(opName(999), "OP_999") {
		t.Error("unknown op should render numerically")
	}
}
