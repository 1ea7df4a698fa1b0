// dpnfs-bench regenerates the paper's evaluation figures (§6) from the
// command line.
//
// Usage:
//
//	dpnfs-bench -fig 6a                 # one figure at the paper's sizes
//	dpnfs-bench -fig all -scale 0.1     # everything, 10% data sizes
//	dpnfs-bench -fig 8d -clients 1,4,8
//	dpnfs-bench -fig degraded           # throughput across a storage-node crash
//	dpnfs-bench -fig recovery           # same crash on the WAL backend, with replay
//	dpnfs-bench -fig window             # throughput vs I/O-engine window size
//	dpnfs-bench -fig tail               # read-latency percentiles, hedged vs not
//	dpnfs-bench -fig rebalance          # foreground writes under a node join
//	dpnfs-bench -fig sweep              # open-loop scaling, 64 → 10k clients
//	dpnfs-bench -fig integrity          # verified reads under bit rot + scrub
//	dpnfs-bench -fig 6a -scale 0.01 -transport tcp   # real loopback sockets
//	dpnfs-bench -fig 6a -scale 0.1 -report BENCH_6a.json
//
// The degraded figure (docs/FAULTS.md) replays a deterministic fault plan —
// crash a storage node mid-run, restart it later — and reports aggregate
// MB/s before, during, and after the outage per architecture.  The recovery
// figure re-runs that schedule on the write-ahead-logged backend
// (docs/BACKENDS.md): the crash discards the victim's volatile state and
// the restart replays its journal.
//
// With -transport=tcp the same workloads run end-to-end over real TCP
// connections on this host: wall-clock numbers that measure the protocol
// implementation, not the paper's simulated testbed.  The figures that
// measure virtual time (marked * in the -fig help) run on the sim transport
// only; -fig all skips them.
//
// With -report the run also writes a machine-readable JSON report: every
// figure's series plus a per-figure snapshot of the unified metrics
// registry (docs/METRICS.md) accumulated across the whole sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dpnfs/directpnfs"
	"dpnfs/internal/cluster"
)

func main() {
	names := make([]string, len(directpnfs.FigureIDs))
	for i, id := range directpnfs.FigureIDs {
		names[i] = id
		if directpnfs.FigureSimOnly[id] {
			names[i] += "*"
		}
	}
	fig := flag.String("fig", "all", "figure id ("+strings.Join(names, ", ")+"; * = sim transport only) or 'all'")
	scale := flag.Float64("scale", 1.0, "data-size scale factor (1.0 = paper sizes)")
	clients := flag.String("clients", "", "comma-separated client counts (default: per figure)")
	transport := flag.String("transport", "sim", "cluster wiring: sim (virtual time) or tcp (real loopback sockets)")
	report := flag.String("report", "", "write a JSON report (figures + metrics snapshots) to this path")
	flag.Parse()

	opt := directpnfs.FigureOptions{Scale: *scale}
	switch *transport {
	case "sim", "":
		opt.Transport = cluster.TransportSim
	case "tcp":
		opt.Transport = cluster.TransportTCP
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q (want sim or tcp)\n", *transport)
		os.Exit(2)
	}
	if *clients != "" {
		for _, part := range strings.Split(*clients, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bad client count %q\n", part)
				os.Exit(2)
			}
			opt.Clients = append(opt.Clients, n)
		}
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = directpnfs.FigureIDs
		if opt.Transport == cluster.TransportTCP {
			// Skip the sim-only figures rather than failing the whole sweep.
			kept := ids[:0:0]
			for _, id := range ids {
				if directpnfs.FigureSimOnly[id] {
					fmt.Fprintf(os.Stderr, "skipping %s: sim transport only\n", id)
					continue
				}
				kept = append(kept, id)
			}
			ids = kept
		}
	}
	var rep *directpnfs.BenchReport
	if *report != "" {
		rep = directpnfs.NewBenchReport(opt)
	}
	for _, id := range ids {
		var figure directpnfs.Figure
		var err error
		if rep != nil {
			figure, err = rep.Add(id, opt)
		} else {
			figure, err = directpnfs.Generate(id, opt)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(figure)
	}
	if rep != nil {
		if err := rep.WriteFile(*report); err != nil {
			fmt.Fprintf(os.Stderr, "report: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("report: wrote %s (%d figures)\n", *report, len(rep.Figures))
	}
}
