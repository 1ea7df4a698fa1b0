// Quickstart: build a Direct-pNFS cluster, write a striped file with real
// bytes, read it back, and verify integrity — the ten-line tour of the
// public API.
package main

import (
	"bytes"
	"fmt"
	"log"

	"dpnfs/directpnfs"
)

func main() {
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
		log.Fatal(err)
	}

	fmt.Printf("wrote+read %d MB through the Direct-pNFS stack in %v of virtual time\n",
		len(data)>>20, elapsed)
	for _, s := range cl.Stats() {
		fmt.Printf("  %-4s nic tx %8v  rx %8v  disk %8v\n", s.Name, s.NICTx, s.NICRx, s.DiskBusy)
	}
}
