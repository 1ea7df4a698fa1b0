// OLTP example: read-modify-write transactions with per-transaction fsync
// (paper §6.4.1).  Every transaction reads a random 8 KB record, rewrites
// it, and forces it to stable storage — the worst case for a parallel file
// system tuned for bulk transfers.
package main

import (
	"fmt"
	"log"

	"dpnfs/directpnfs"
)

func main() {
	const clients = 4
	const txns = 2000

	fmt.Printf("OLTP: %d clients × %d transactions (8 KB read-modify-write + fsync)\n\n",
		clients, txns)
	for _, arch := range []directpnfs.Arch{directpnfs.ArchDirectPNFS, directpnfs.ArchPVFS2} {
		cl := directpnfs.New(directpnfs.Config{Arch: arch, Clients: clients})
		res, err := directpnfs.OLTP(cl, directpnfs.OLTPConfig{
			Transactions: txns,
			FileBytes:    128 << 20,
		})
		if err != nil {
			log.Fatalf("%s: %v", arch, err)
		}
		fmt.Printf("  %-12s %7.1f MB/s  %8.0f txn/s  (%v virtual)\n",
			arch, res.ThroughputMBs(), res.TPS(), res.Elapsed.Round(1e6))
		cl.Close()
	}
}
