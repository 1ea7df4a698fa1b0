package cluster_test

import (
	"runtime"
	"testing"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/workload"
)

// TestCloseReleasesSimulatedCluster pins what Close owes a simulated
// cluster: every goroutine its kernel started (server daemons parked on
// their inboxes, idle workers) ends, and nothing keeps the cluster
// reachable.  Before Kernel.Shutdown each build/run/Close cycle over the
// five architectures left 51 goroutines and about 790 KB behind.
func TestCloseReleasesSimulatedCluster(t *testing.T) {
	cycle := func() {
		for _, arch := range cluster.Archs {
			cl := cluster.New(cluster.Config{Arch: arch, Clients: 2})
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
	// Shutdown returns when each goroutine has handed the baton back; the
	// last of them may still be on its way out.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 20 cycles, %d before the first", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	if last := heap(); last > 2*first {
		t.Fatalf("live heap grew from %d KB after one cycle to %d KB after 20", first>>10, last>>10)
	}
}
