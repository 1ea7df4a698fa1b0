// ATLAS example: replay the particle-physics Digitization write trace
// (paper §6.3.1) against Direct-pNFS and native PVFS2 and compare aggregate
// write throughput.  The trace mixes many small requests with a few bulk
// requests; the NFSv4 client's write gathering absorbs the small ones while
// the cacheless PVFS2 client pays per-request overhead for each.
package main

import (
	"fmt"
	"log"

	"dpnfs/directpnfs"
)

func main() {
	const clients = 4
	const perClient = 64 << 20 // scaled-down Digitization data volume

	fmt.Printf("ATLAS digitization replay: %d clients × %d MB\n\n", clients, perClient>>20)
	for _, arch := range []directpnfs.Arch{directpnfs.ArchDirectPNFS, directpnfs.ArchPVFS2} {
		cl := directpnfs.New(directpnfs.Config{Arch: arch, Clients: clients})
		res, err := directpnfs.ATLAS(cl, directpnfs.ATLASConfig{TotalBytes: perClient})
		if err != nil {
			log.Fatalf("%s: %v", arch, err)
		}
		fmt.Printf("  %-12s %7.1f MB/s aggregate (%v virtual)\n",
			arch, res.ThroughputMBs(), res.Elapsed.Round(1e6))
		cl.Close()
	}
	fmt.Println("\nDirect-pNFS rides out the small-request mix; PVFS2 pays per-request overhead.")
}
