// dpnfs-serve exports a cluster over real TCP on loopback: every NFSv4.1
// and PVFS2 service of the chosen architecture listens on its own socket,
// and the export table (node/service -> host:port) is printed on startup.
// An external client can mount the metadata server's "nfs-mds" address with
// pnfs-demo -connect.
//
// Usage:
//
//	dpnfs-serve                          # Direct-pNFS, serve until SIGINT
//	dpnfs-serve -arch nfsv4 -backends 4
//	dpnfs-serve -backend wal             # write-ahead-logged stores (docs/BACKENDS.md)
//	dpnfs-serve -selftest                # serve, run a workload, exit
//	dpnfs-serve -metrics 127.0.0.1:9090  # pin the /metrics listen address
//
// With -selftest the binary drives a write/fsync/read-back workload from
// -clients concurrent mounts through the exported sockets and exits 0 on
// success — the CI smoke path.
//
// Every run also serves the cluster's unified observability registry
// (docs/METRICS.md) in Prometheus text format at http://<metrics-addr>/metrics;
// the bound address is printed on startup.  -metrics "" disables it.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"dpnfs/internal/cluster"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

func main() {
	arch := flag.String("arch", string(cluster.ArchDirectPNFS),
		"architecture: direct-pnfs, pvfs2, pnfs-2tier, pnfs-3tier, nfsv4")
	backends := flag.Int("backends", 3, "back-end storage nodes (incl. metadata manager)")
	backend := flag.String("backend", cluster.BackendMem,
		"store backend: mem (volatile) or wal (write-ahead logged)")
	clients := flag.Int("clients", 2, "selftest client mounts")
	selftest := flag.Bool("selftest", false, "run a built-in workload against the export, then exit")
	metricsAddr := flag.String("metrics", "127.0.0.1:0", `Prometheus /metrics listen address ("" disables)`)
	flag.Parse()

	known := false
	for _, a := range cluster.Archs {
		if cluster.Arch(*arch) == a {
			known = true
			break
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown architecture %q; known: %v\n", *arch, cluster.Archs)
		os.Exit(2)
	}
	if _, err := cluster.BackendFactory(*backend); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cl := cluster.New(cluster.Config{
		Arch:      cluster.Arch(*arch),
		Clients:   *clients,
		Backends:  *backends,
		Real:      true,
		Transport: cluster.TransportTCP,
		Backend:   *backend,
	})
	defer cl.Close()

	tr, ok := cl.Transport().(*rpc.TCPTransport)
	if !ok {
		log.Fatal("dpnfs-serve: cluster is not on the TCP transport")
	}
	addrs := tr.Addrs()
	keys := make([]string, 0, len(addrs))
	for k := range addrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s cluster exported over TCP (%d services):\n", *arch, len(keys))
	for _, k := range keys {
		fmt.Printf("  %-18s %s\n", k, addrs[k])
	}

	if *metricsAddr != "" {
		srv, bound, err := serveMetrics(*metricsAddr, cl.Metrics())
		if err != nil {
			log.Fatalf("metrics endpoint: %v", err)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics\n", bound)
	}

	if *selftest {
		if err := runSelftest(cl, *clients); err != nil {
			log.Fatalf("selftest: %v", err)
		}
		fmt.Println("selftest: OK")
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	fmt.Println("serving (Ctrl-C to stop)")
	<-stop
	fmt.Println("shutting down")
}

// serveMetrics exposes the registry at /metrics on addr and returns the
// server plus the bound address (addr may use port 0).
func serveMetrics(addr string, reg *metrics.Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(reg))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// runSelftest writes, syncs, and reads back a distinct pattern from every
// client mount through the real sockets.
func runSelftest(cl *cluster.Cluster, clients int) error {
	const size = 256 << 10
	if _, err := cl.RunClient(0, func(ctx *rpc.Ctx, m *cluster.Mount, _ int) error {
		return m.Mkdir(ctx, "/selftest")
	}); err != nil {
		return err
	}
	_, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		path := fmt.Sprintf("/selftest/f%d", i)
		f, err := m.Create(ctx, path)
		if err != nil {
			return err
		}
		buf := make([]byte, size)
		for k := range buf {
			buf[k] = byte(13*i + k)
		}
		if err := m.Write(ctx, f, 0, payload.Real(buf)); err != nil {
			return err
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		if err := m.Close(ctx, f); err != nil {
			return err
		}
		f, err = m.Open(ctx, path)
		if err != nil {
			return err
		}
		got, n, err := m.Read(ctx, f, 0, size)
		if err != nil {
			return err
		}
		if n != size || !payload.Equal(got, payload.Real(buf)) {
			return fmt.Errorf("client %d read back %d bytes with wrong content", i, n)
		}
		return m.Close(ctx, f)
	})
	return err
}
