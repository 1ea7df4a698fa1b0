package cluster

import (
	"testing"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// TestEngineConfigRelay pins the one place cluster options become engine
// options: engineConfig carries exactly the three Config fields, and leaves
// name, issuer, registry and (PVFS2) the transfer cap for each client to
// fill.
func TestEngineConfigRelay(t *testing.T) {
	cl := New(Config{
		Arch: ArchDirectPNFS, Clients: 1,
		MaxFlight: 3, IOHedge: true, IOBackgroundShare: 0.5,
	})
	defer cl.Close()
	want := ioengine.Config{MaxFlight: 3, Hedge: true, BackgroundShare: 0.5}
	if got := cl.engineConfig(); got != want {
		t.Errorf("engineConfig() = %+v, want %+v", got, want)
	}
}

// TestMaxFlightReachesBothMountBuilders checks the relay end to end: with
// MaxFlight 1 the NFS mounts (issuer "nfs") and the PVFS2 clients (issuer
// "pvfs") both issue strictly serially, so every window-occupancy
// observation lands in the le=1 bucket.  One client per cluster: engines of
// one issuer share the occupancy series, which would add their depths.
func TestMaxFlightReachesBothMountBuilders(t *testing.T) {
	const (
		stripe   = 64 << 10
		fileSize = 8 * stripe // fans out over every device several times
	)
	for arch, issuer := range map[Arch]string{ArchDirectPNFS: "nfs", ArchPVFS2: "pvfs"} {
		t.Run(string(arch), func(t *testing.T) {
			cl := New(Config{
				Arch: arch, Clients: 1, Backends: 4,
				StripeSize: stripe, WSize: fileSize, RSize: fileSize,
				MaxFlight: 1,
			})
			defer cl.Close()
			if _, err := cl.Run(func(ctx *rpc.Ctx, m *Mount, _ int) error {
				f, err := m.Create(ctx, "/f")
				if err != nil {
					return err
				}
				if err := m.Write(ctx, f, 0, payload.Synthetic(fileSize)); err != nil {
					return err
				}
				if err := m.Fsync(ctx, f); err != nil {
					return err
				}
				m.DropCaches()
				if _, _, err := m.Read(ctx, f, 0, fileSize); err != nil {
					return err
				}
				return m.Close(ctx, f)
			}); err != nil {
				t.Fatal(err)
			}
			var observed uint64
			for _, m := range cl.Metrics().Snapshot().Metrics {
				if m.Name != "ioengine_window_occupancy" {
					continue
				}
				for _, s := range m.Series {
					if len(s.Buckets) == 0 || s.Buckets[0].LE != 1 {
						t.Fatalf("issuer %s: first bucket is not le=1: %+v", s.Labels["issuer"], s.Buckets)
					}
					if s.Buckets[0].Cumulative != s.Count {
						t.Errorf("issuer %s: %d of %d occupancy observations above 1 (max %v)",
							s.Labels["issuer"], s.Count-s.Buckets[0].Cumulative, s.Count, s.Max)
					}
					if s.Labels["issuer"] == issuer {
						observed += s.Count
					}
				}
			}
			if observed == 0 {
				t.Errorf("issuer %s issued nothing — the check is vacuous", issuer)
			}
		})
	}
}
