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
	m := newMetrics(nil)
	for i := 0; i < 90; i++ {
		m.record(OpNumRead, 50*time.Microsecond, 0, nil)
	}
	for i := 0; i < 10; i++ {
		m.record(OpNumRead, 50*time.Millisecond, 0, nil)
	}
	om := m.Op(OpNumRead)
	if om == nil || om.Count() != 100 {
		t.Fatalf("op metrics %+v", om)
	}
	if om.Max() != 50*time.Millisecond {
		t.Fatalf("max %v", om.Max())
	}
	if p50 := om.Percentile(50); p50 > time.Millisecond {
		t.Fatalf("p50 %v, want ≤ 100µs bucket", p50)
	}
	if p99 := om.Percentile(99); p99 < 30*time.Millisecond {
		t.Fatalf("p99 %v, want the slow bucket", p99)
	}
	if om.Mean() <= 50*time.Microsecond || om.Mean() >= 50*time.Millisecond {
		t.Fatalf("mean %v outside (50µs, 50ms)", om.Mean())
	}
}

func TestMetricsErrorsCounted(t *testing.T) {
	m := newMetrics(nil)
	m.record(OpNumWrite, time.Millisecond, 0, nil)
	m.record(OpNumWrite, time.Millisecond, 0, fserr.ErrIO)
	if got := m.Op(OpNumWrite).Errors(); got != 1 {
		t.Fatalf("errors %d", got)
	}
	if m.Op(OpNumCommit) != nil {
		t.Fatal("never-issued op should report nil")
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
	mt := m.client.Metrics()
	if mt.Op(OpNumWrite) == nil || mt.Op(OpNumWrite).Count() == 0 {
		t.Fatal("WRITE ops not recorded")
	}
	if got := mt.Op(OpNumWrite).Bytes(); got != 4<<20 {
		t.Fatalf("WRITE bytes %d, want %d", got, 4<<20)
	}
	if mt.Op(OpNumCommit) == nil {
		t.Fatal("COMMIT not recorded")
	}
	if mt.Op(OpNumWrite).Mean() <= 0 {
		t.Fatal("no latency recorded under simulation")
	}
	table := mt.String()
	for _, want := range []string{"WRITE", "COMMIT", "OPEN", "mean", "p95"} {
		if !strings.Contains(table, want) {
			t.Errorf("metrics table missing %q:\n%s", want, table)
		}
	}
}

// TestMountSharedRegistry proves the mount's table and the shared registry
// are two views of the same instruments: what the table reports is exactly
// what a /metrics endpoint would export.
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
