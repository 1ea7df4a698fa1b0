package directpnfs_test

import (
	"bytes"
	"fmt"
	"testing"

	"dpnfs/directpnfs"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	cl := directpnfs.New(directpnfs.Config{
		Arch:    directpnfs.ArchDirectPNFS,
		Clients: 2,
		Real:    true,
	})
	defer cl.Close()
	data := bytes.Repeat([]byte("public api"), 100_000) // ~1 MB
	elapsed, err := cl.Run(func(ctx *directpnfs.Ctx, m *directpnfs.Mount, i int) error {
		path := fmt.Sprintf("/api-%d", i)
		f, err := m.Create(ctx, path)
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, directpnfs.Bytes(data)); err != nil {
			return err
		}
		if err := m.Close(ctx, f); err != nil {
			return err
		}
		g, err := m.Open(ctx, path)
		if err != nil {
			return err
		}
		got, n, err := m.Read(ctx, g, 0, int64(len(data)))
		if err != nil || n != int64(len(data)) {
			return fmt.Errorf("read: %d %v", n, err)
		}
		if !bytes.Equal(got.Bytes, data) {
			return fmt.Errorf("corruption through public API")
		}
		if !m.PNFS() {
			return fmt.Errorf("expected pNFS layouts")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if len(cl.Stats()) != 6 {
		t.Fatalf("expected 6 back-end nodes, got %d", len(cl.Stats()))
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() string {
		cl := directpnfs.New(directpnfs.Config{Arch: directpnfs.ArchDirectPNFS, Clients: 3, Seed: 7})
		defer cl.Close()
		res, err := directpnfs.ATLAS(cl, directpnfs.ATLASConfig{TotalBytes: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %s", res.Bytes, res.Elapsed)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical configs diverged: %q vs %q", a, b)
	}
}

func TestAllWorkloadsThroughPublicAPI(t *testing.T) {
	mk := func() *directpnfs.Cluster {
		cl := directpnfs.New(directpnfs.Config{Arch: directpnfs.ArchDirectPNFS, Clients: 2})
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	if _, err := directpnfs.IOR(mk(), directpnfs.IORConfig{FileSize: 4 << 20, Block: 1 << 20, Separate: true}); err != nil {
		t.Errorf("IOR: %v", err)
	}
	if _, err := directpnfs.ATLAS(mk(), directpnfs.ATLASConfig{TotalBytes: 4 << 20}); err != nil {
		t.Errorf("ATLAS: %v", err)
	}
	if _, err := directpnfs.BTIO(mk(), directpnfs.BTIOConfig{CheckpointBytes: 4 << 20}); err != nil {
		t.Errorf("BTIO: %v", err)
	}
	if _, err := directpnfs.OLTP(mk(), directpnfs.OLTPConfig{FileBytes: 4 << 20, Transactions: 20}); err != nil {
		t.Errorf("OLTP: %v", err)
	}
	if _, err := directpnfs.Postmark(mk(), directpnfs.PostmarkConfig{Transactions: 20}); err != nil {
		t.Errorf("Postmark: %v", err)
	}
}

func TestFigureRegistryThroughPublicAPI(t *testing.T) {
	// 14 paper figures plus the repository's degraded-mode,
	// crash-recovery, window-sweep, tail-latency, rebalance, and
	// open-loop-sweep figures.
	if len(directpnfs.FigureIDs) != 21 {
		t.Fatalf("expected 21 figures, got %d", len(directpnfs.FigureIDs))
	}
	fig, err := directpnfs.Figures["6a"](directpnfs.FigureOptions{
		Scale:   0.002,
		Clients: []int{1},
		Archs:   []directpnfs.Arch{directpnfs.ArchNFSv4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Value("NFSv4", 1) <= 0 {
		t.Fatal("figure produced no value")
	}
}
