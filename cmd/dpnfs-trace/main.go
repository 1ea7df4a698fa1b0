// dpnfs-trace runs one IOR workload on a chosen architecture and dumps
// per-node utilization — which resource (NIC, CPU, disk) each back-end node
// spent its time on.  This is the bottleneck analysis behind the paper's
// §6.2.1 discussion.
//
// Usage:
//
//	dpnfs-trace -arch direct-pnfs -clients 8 -mb 100 -block 2097152
//	dpnfs-trace -arch pnfs-2tier -read
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dpnfs/directpnfs"
)

// errUsage marks a flag-parse failure whose message the FlagSet has already
// printed; main exits 2 without repeating it (flag.ExitOnError behaviour).
var errUsage = errors.New("usage")

// run executes one trace with the given command-line arguments, writing the
// utilization table to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dpnfs-trace", flag.ContinueOnError)
	arch := fs.String("arch", "direct-pnfs", "architecture: direct-pnfs, pvfs2, pnfs-2tier, pnfs-3tier, nfsv4")
	clients := fs.Int("clients", 4, "number of clients")
	mb := fs.Int64("mb", 100, "per-client data volume in MB")
	block := fs.Int64("block", 2<<20, "application request size in bytes")
	read := fs.Bool("read", false, "measure reads (warm server cache) instead of writes")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	cl := directpnfs.New(directpnfs.Config{Arch: directpnfs.Arch(*arch), Clients: *clients})
	defer cl.Close()
	res, err := directpnfs.IOR(cl, directpnfs.IORConfig{
		FileSize: *mb << 20,
		Block:    *block,
		Separate: true,
		Read:     *read,
	})
	if err != nil {
		return err
	}
	mode := "write"
	if *read {
		mode = "read"
	}
	fmt.Fprintf(out, "%s %s: %d clients × %d MB @ %d B blocks → %.1f MB/s aggregate (%v virtual)\n\n",
		*arch, mode, *clients, *mb, *block, res.ThroughputMBs(), res.Elapsed.Round(1e6))
	fmt.Fprintf(out, "%-6s %12s %12s %12s %12s %8s %8s %8s\n",
		"node", "nic-tx", "nic-rx", "cpu", "disk", "reads", "writes", "misses")
	for _, s := range cl.Stats() {
		fmt.Fprintf(out, "%-6s %12v %12v %12v %12v %8d %8d %8d\n",
			s.Name, s.NICTx.Round(1e6), s.NICRx.Round(1e6), s.CPUBusy.Round(1e6),
			s.DiskBusy.Round(1e6), s.DiskReads, s.DiskWrites, s.DiskCacheMisses)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
