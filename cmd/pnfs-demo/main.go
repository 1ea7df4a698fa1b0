// pnfs-demo runs the NFSv4.1 protocol implementation over real TCP on
// loopback: it starts an NFS server (in-memory backend), mounts it with the
// same client engine the simulations use, and performs a small session of
// file operations — demonstrating that the protocol stack (XDR, RPC
// framing, COMPOUND, sessions, write-back cache) is a real implementation,
// not simulation-only scaffolding.
//
// Usage:
//
//	pnfs-demo              # server + client in one process
//	pnfs-demo -listen :xx  # server only
//	pnfs-demo -connect addr
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"dpnfs/internal/nfs"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store/mem"
)

func main() {
	listen := flag.String("listen", "", "serve only, on this address")
	connect := flag.String("connect", "", "client only, to this address")
	flag.Parse()

	if *listen != "" {
		srv := nfs.NewServer(nfs.ServerConfig{Backend: nfs.NewStoreBackend(mem.New(), nil)})
		tcp, err := rpc.ListenTCP(*listen, nfs.Registry(), srv.Handle)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("NFSv4.1 server listening on %s\n", tcp.Addr())
		select {} // serve forever
	}

	addr := *connect
	var tcp *rpc.TCPServer
	if addr == "" {
		srv := nfs.NewServer(nfs.ServerConfig{Backend: nfs.NewStoreBackend(mem.New(), nil)})
		var err error
		tcp, err = rpc.ListenTCP("127.0.0.1:0", nfs.Registry(), srv.Handle)
		if err != nil {
			log.Fatal(err)
		}
		defer tcp.Close()
		addr = tcp.Addr()
		fmt.Printf("server: listening on %s\n", addr)
	}

	conn, err := rpc.DialTCP(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	client := nfs.NewClient(nfs.ClientConfig{MDS: conn, Name: "demo-client", Real: true})
	ctx := &rpc.Ctx{} // real-time mode
	if err := client.Mount(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("client: session established (EXCHANGE_ID + CREATE_SESSION)")

	// A per-process directory keeps reruns against a persistent server
	// (dpnfs-serve) from colliding with earlier state.
	dir := fmt.Sprintf("/demo-%d", os.Getpid())
	if err := client.Mkdir(ctx, dir); err != nil {
		log.Fatal(err)
	}
	f, err := client.Create(ctx, dir+"/greeting")
	if err != nil {
		log.Fatal(err)
	}
	msg := []byte("hello from NFSv4.1 over real TCP")
	if err := client.Write(ctx, f, 0, payload.Real(msg)); err != nil {
		log.Fatal(err)
	}
	if err := client.Close(ctx, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client: wrote %d bytes (write-back cache + COMMIT on close)\n", len(msg))

	g, err := client.Open(ctx, dir+"/greeting")
	if err != nil {
		log.Fatal(err)
	}
	got, n, err := client.Read(ctx, g, 0, int64(len(msg)))
	if err != nil || n != int64(len(msg)) || !bytes.Equal(got.Bytes, msg) {
		log.Fatalf("read back failed: n=%d err=%v", n, err)
	}
	fmt.Printf("client: read back %q\n", got.Bytes)

	names, err := client.ReadDir(ctx, dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client: readdir %s = %v\n", dir, names)
	fmt.Println("demo complete: full protocol round trip over TCP")
}
