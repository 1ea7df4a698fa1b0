package cluster_test

import (
	"runtime"
	"testing"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/workload"
)

// TestCloseReleasesCluster pins what Close owes a cluster, once per
// transport: every goroutine the cluster started ends — on the fabric the
// kernel's (server daemons parked on their inboxes, idle workers), over TCP
// the listeners' and connections' — and nothing keeps the cluster
// reachable.  Before Kernel.Shutdown each simulated build/run/Close cycle
// over the five architectures left 51 goroutines and about 790 KB behind.
func TestCloseReleasesCluster(t *testing.T) {
	for _, tr := range []cluster.TransportKind{cluster.TransportSim, cluster.TransportTCP} {
		t.Run(string(tr), func(t *testing.T) {
			cycle := func() {
				for _, arch := range cluster.Archs {
					cl := cluster.New(cluster.Config{Arch: arch, Clients: 2, Transport: tr})
					_, err := workload.IOR(cl, workload.IORConfig{FileSize: 1 << 20, Block: 64 << 10, Separate: true, Read: true})
					if err != nil {
						t.Fatalf("%s: %v", arch, err)
					}
					if err := cl.Close(); err != nil {
						t.Fatalf("%s: close: %v", arch, err)
					}
				}
			}
			heap := func() uint64 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			goroutines := runtime.NumGoroutine()
			cycle()
			first := heap()
			for i := 1; i < 20; i++ {
				cycle()
			}
			// Shutdown returns when each coroutine has ended; the kernel's
			// loop goroutine, those Shutdown stops processes from, and a
			// closed socket's reader may still be on their way out.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after 20 cycles, %d before the first", runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(time.Millisecond)
			}
			last := heap()
			t.Logf("live heap %d KB after one cycle, %d KB after 20", first>>10, last>>10)
			if last > 2*first {
				t.Fatalf("live heap grew from %d KB after one cycle to %d KB after 20", first>>10, last>>10)
			}
		})
	}
}
