package directpnfs_test

import (
	"bytes"
	"fmt"

	"dpnfs/directpnfs"
)

// ExampleNew builds a Direct-pNFS cluster, writes a striped file with real
// bytes, reads it back and checks it, then writes a synthetic one: the
// short tour of the public API.
func ExampleNew() {
	cl := directpnfs.New(directpnfs.Config{
		Arch:    directpnfs.ArchDirectPNFS,
		Clients: 1,
		Real:    true, // carry real bytes end to end
	})
	defer cl.Close()

	data := make([]byte, 8<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}

	elapsed, err := cl.Run(func(ctx *directpnfs.Ctx, m *directpnfs.Mount, i int) error {
		f, err := m.Create(ctx, "/hello")
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, directpnfs.Bytes(data)); err != nil {
			return err
		}
		if err := m.Close(ctx, f); err != nil {
			return err
		}

		g, err := m.Open(ctx, "/hello")
		if err != nil {
			return err
		}
		got, n, err := m.Read(ctx, g, 0, int64(len(data)))
		if err != nil {
			return err
		}
		if n != int64(len(data)) || !bytes.Equal(got.Bytes, data) {
			return fmt.Errorf("read back %d bytes, integrity check failed", n)
		}
		fmt.Printf("pNFS mount holds layouts: %v\n", m.PNFS())
		return nil
	})
	if err != nil {
		fmt.Println("run:", err)
		return
	}

	fmt.Printf("wrote+read %d MB through the Direct-pNFS stack in %v of virtual time\n",
		len(data)>>20, elapsed)
	for _, s := range cl.Stats() {
		fmt.Printf("  %-4s nic tx %8v  rx %8v  disk %8v\n", s.Name, s.NICTx, s.NICRx, s.DiskBusy)
	}

	// A synthetic payload is a length without bytes: benchmarks move
	// simulated gigabytes this way.
	elapsed, err = cl.Run(func(ctx *directpnfs.Ctx, m *directpnfs.Mount, i int) error {
		f, err := m.Create(ctx, "/big")
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, directpnfs.Synthetic(64<<20)); err != nil {
			return err
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		size, err := m.Stat(ctx, f)
		fmt.Printf("synthetic file holds %d MB\n", size>>20)
		return err
	})
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("wrote it in %v of virtual time\n", elapsed)
	// Output:
	// pNFS mount holds layouts: true
	// wrote+read 8 MB through the Direct-pNFS stack in 302.996052ms of virtual time
	//   io0  nic tx   8.64µs  rx 16.785344ms  disk 101.76438ms
	//   io1  nic tx  1.504µs  rx 16.78032ms  disk 101.76438ms
	//   io2  nic tx  1.504µs  rx 16.78032ms  disk 101.76438ms
	//   io3  nic tx  1.504µs  rx 16.78032ms  disk 101.76438ms
	//   io4  nic tx    352ns  rx    384ns  disk       0s
	//   io5  nic tx    352ns  rx    384ns  disk       0s
	// synthetic file holds 64 MB
	// wrote it in 1.01159202s of virtual time
}

// ExampleConfig_aggregation runs Direct-pNFS with a pluggable aggregation
// driver (paper §4.3).  The layout translator passes the parallel file
// system's aggregation scheme through untouched, so an unmodified client
// can follow unconventional striping: here Clusterfile-style hierarchical
// striping (two groups of three storage nodes, 1 MB outer unit, 256 KB
// inner unit) and a variable stripe, against standard round-robin.
func ExampleConfig_aggregation() {
	run := func(label string, cfg directpnfs.Config) {
		cl := directpnfs.New(cfg)
		defer cl.Close()
		res, err := directpnfs.IOR(cl, directpnfs.IORConfig{
			FileSize: 64 << 20,
			Block:    1 << 20,
			Separate: true,
		})
		if err != nil {
			fmt.Printf("%s: %v\n", label, err)
			return
		}
		fmt.Printf("  %-22s %7.1f MB/s aggregate write\n", label, res.ThroughputMBs())
	}

	fmt.Println("Direct-pNFS aggregation drivers (4 clients, 6 storage nodes):")
	base := directpnfs.Config{Arch: directpnfs.ArchDirectPNFS, Clients: 4}

	run("round-robin (standard)", base)

	hier := base
	hier.Aggregation = "hierarchical"
	hier.AggParams = []int64{1 << 20, 256 << 10, 2} // outer, inner, groups
	run("hierarchical (plugin)", hier)

	vs := base
	vs.Aggregation = "variable-stripe"
	vs.AggParams = []int64{4 << 20, 2 << 20, 2 << 20, 1 << 20, 1 << 20, 512 << 10}
	run("variable-stripe (plugin)", vs)
	// Output:
	// Direct-pNFS aggregation drivers (4 clients, 6 storage nodes):
	//   round-robin (standard)   107.3 MB/s aggregate write
	//   hierarchical (plugin)    120.5 MB/s aggregate write
	//   variable-stripe (plugin)    52.8 MB/s aggregate write
}

// ExampleATLAS replays the particle-physics Digitization write trace
// (paper §6.3.1) against Direct-pNFS and native PVFS2.  The trace mixes
// many small requests with a few bulk ones; the NFSv4 client's write
// gathering absorbs the small ones, while the cacheless PVFS2 client pays
// per-request overhead for each.
func ExampleATLAS() {
	const clients = 4
	const perClient = 64 << 20 // scaled-down Digitization data volume

	fmt.Printf("ATLAS digitization replay: %d clients × %d MB\n", clients, perClient>>20)
	for _, arch := range []directpnfs.Arch{directpnfs.ArchDirectPNFS, directpnfs.ArchPVFS2} {
		cl := directpnfs.New(directpnfs.Config{Arch: arch, Clients: clients})
		res, err := directpnfs.ATLAS(cl, directpnfs.ATLASConfig{TotalBytes: perClient})
		cl.Close()
		if err != nil {
			fmt.Printf("%s: %v\n", arch, err)
			return
		}
		fmt.Printf("  %-12s %7.1f MB/s aggregate (%v virtual)\n",
			arch, res.ThroughputMBs(), res.Elapsed.Round(1e6))
	}
	// Output:
	// ATLAS digitization replay: 4 clients × 64 MB
	//   direct-pnfs     92.4 MB/s aggregate (2.904s virtual)
	//   pvfs2           25.5 MB/s aggregate (10.519s virtual)
}

// ExampleOLTP runs read-modify-write transactions with a fsync after each
// (paper §6.4.1).  Every transaction reads a random 8 KB record, rewrites
// it and forces it to stable storage: the worst case for a parallel file
// system tuned for bulk transfers.
func ExampleOLTP() {
	const clients = 4
	const txns = 2000

	fmt.Printf("OLTP: %d clients × %d transactions (8 KB read-modify-write + fsync)\n", clients, txns)
	for _, arch := range []directpnfs.Arch{directpnfs.ArchDirectPNFS, directpnfs.ArchPVFS2} {
		cl := directpnfs.New(directpnfs.Config{Arch: arch, Clients: clients})
		res, err := directpnfs.OLTP(cl, directpnfs.OLTPConfig{
			Transactions: txns,
			FileBytes:    128 << 20,
		})
		cl.Close()
		if err != nil {
			fmt.Printf("%s: %v\n", arch, err)
			return
		}
		fmt.Printf("  %-12s %7.1f MB/s  %8.0f txn/s  (%v virtual)\n",
			arch, res.ThroughputMBs(), res.TPS(), res.Elapsed.Round(1e6))
	}
	// Output:
	// OLTP: 4 clients × 2000 transactions (8 KB read-modify-write + fsync)
	//   direct-pnfs     10.0 MB/s       609 txn/s  (13.143s virtual)
	//   pvfs2            3.8 MB/s       235 txn/s  (34.076s virtual)
}

// ExampleGenerate regenerates a paper figure programmatically.  Scale and
// Clients shrink the sweep so the example runs in milliseconds; dropping
// them reproduces the paper's full data sizes.
func ExampleGenerate() {
	fig, err := directpnfs.Generate("6a", directpnfs.FigureOptions{
		Scale:   0.002,
		Clients: []int{1, 2},
		Archs:   []directpnfs.Arch{directpnfs.ArchDirectPNFS, directpnfs.ArchPVFS2},
	})
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	fmt.Printf("%s: %q over %d series\n", fig.ID, fig.Title, len(fig.Series))
	fmt.Printf("Direct-pNFS scales with clients: %v\n",
		fig.Value("Direct-pNFS", 2) > fig.Value("Direct-pNFS", 1))
	// Output:
	// Fig6a: "write, separate files, 2 MB block" over 2 series
	// Direct-pNFS scales with clients: true
}

// ExampleNew_tcpTransport wires a Direct-pNFS cluster onto real loopback
// TCP sockets via Config.Transport: the same architecture and workload
// code as the simulated fabric, but real goroutines moving real bytes.
func ExampleNew_tcpTransport() {
	cl := directpnfs.New(directpnfs.Config{
		Arch:      directpnfs.ArchDirectPNFS,
		Clients:   1,
		Backends:  3,
		Real:      true, // carry actual bytes end to end
		Transport: directpnfs.TransportTCP,
	})
	defer cl.Close()

	_, err := cl.Run(func(ctx *directpnfs.Ctx, m *directpnfs.Mount, i int) error {
		f, err := m.Create(ctx, "/hello")
		if err != nil {
			return err
		}
		if err := m.Write(ctx, f, 0, directpnfs.Bytes([]byte("direct-pnfs over tcp"))); err != nil {
			return err
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		data, n, err := m.Read(ctx, f, 0, 64)
		if err != nil {
			return err
		}
		fmt.Printf("read %d bytes: %s\n", n, data.Bytes)
		return m.Close(ctx, f)
	})
	if err != nil {
		fmt.Println("run:", err)
	}
	// Output:
	// read 20 bytes: direct-pnfs over tcp
}
