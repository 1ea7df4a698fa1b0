// Aggregation example: Direct-pNFS with a pluggable aggregation driver
// (paper §4.3).  The layout translator passes the parallel file system's
// aggregation scheme through untouched, so an unmodified client can follow
// unconventional striping — here Clusterfile-style hierarchical striping
// (two groups of three storage nodes, 1 MB outer unit, 256 KB inner unit),
// compared against standard round-robin.
package main

import (
	"fmt"
	"log"

	"dpnfs/directpnfs"
)

func run(label string, cfg directpnfs.Config) {
	cl := directpnfs.New(cfg)
	defer cl.Close()
	res, err := directpnfs.IOR(cl, directpnfs.IORConfig{
		FileSize: 64 << 20,
		Block:    1 << 20,
		Separate: true,
	})
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	fmt.Printf("  %-22s %7.1f MB/s aggregate write\n", label, res.ThroughputMBs())
}

func main() {
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
}
