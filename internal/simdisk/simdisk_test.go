package simdisk

import (
	"testing"
	"testing/quick"
	"time"

	"dpnfs/internal/sim"
)

func testDisk() *Disk {
	return New(Config{
		Name:       "d0",
		ReadBPS:    50e6,
		WriteBPS:   20e6,
		CacheBytes: 1 << 20,
	})
}

func TestBurstWriteCompletesAtMemorySpeed(t *testing.T) {
	k := sim.NewKernel(1)
	d := testDisk()
	var done sim.Time
	k.Go("w", func(p *sim.Proc) {
		d.Write(p, 1, 0, 1<<20) // 1 MB: ~52 ms drain, under the 2 s dirty limit
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if time.Duration(done) > time.Millisecond {
		t.Fatalf("buffered write blocked for %v; should complete at memory speed", time.Duration(done))
	}
}

func TestSustainedWritesConvergeToDiskBandwidth(t *testing.T) {
	k := sim.NewKernel(1)
	d := testDisk()
	const chunk = 1 << 20
	const n = 100 // 100 MB total at 20 MB/s => ~5 s
	var done sim.Time
	k.Go("w", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			d.Write(p, 1, int64(i)*chunk, chunk)
		}
		d.Sync(p)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	secs := done.Seconds()
	mbps := float64(n*chunk) / 1e6 / secs
	if mbps < 18 || mbps > 22 {
		t.Fatalf("sustained write throughput %.1f MB/s, want ~20", mbps)
	}
}

func TestSyncWaitsForBacklog(t *testing.T) {
	k := sim.NewKernel(1)
	d := testDisk()
	var wrote, synced sim.Time
	k.Go("w", func(p *sim.Proc) {
		d.Write(p, 1, 0, 1<<20)
		wrote = p.Now()
		d.Sync(p)
		synced = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if synced <= wrote {
		t.Fatal("sync did not wait for the write-behind backlog")
	}
	// 1 MB at 20 MB/s ≈ 52 ms (+ positioning).
	if got := time.Duration(synced); got < 50*time.Millisecond {
		t.Fatalf("sync returned at %v, want ≥ ~52 ms", got)
	}
}

func TestWarmReadSkipsDisk(t *testing.T) {
	k := sim.NewKernel(1)
	d := testDisk()
	d.Warm(1, 0, 512<<10)
	var done sim.Time
	k.Go("r", func(p *sim.Proc) {
		d.Read(p, 1, 0, 512<<10)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if time.Duration(done) > time.Millisecond {
		t.Fatalf("warm read took %v; should be memory-speed", time.Duration(done))
	}
	_, _, hits, misses, _, _ := d.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("hits=%d misses=%d, want 1/0", hits, misses)
	}
}

func TestColdReadPaysDiskService(t *testing.T) {
	k := sim.NewKernel(1)
	d := testDisk()
	var done sim.Time
	k.Go("r", func(p *sim.Proc) {
		d.Read(p, 1, 0, 1<<20) // 1 MB at 50 MB/s ≈ 21 ms + 7 ms position
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := time.Duration(done)
	if got < 26*time.Millisecond || got > 30*time.Millisecond {
		t.Fatalf("cold read took %v, want ~28 ms", got)
	}
}

func TestReadAfterWriteHitsCache(t *testing.T) {
	k := sim.NewKernel(1)
	d := testDisk()
	k.Go("rw", func(p *sim.Proc) {
		d.Write(p, 1, 0, 64<<10)
		before := p.Now()
		d.Read(p, 1, 0, 64<<10)
		if p.Now()-before > sim.Time(time.Millisecond) {
			t.Error("read of just-written data went to disk")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomAccessPaysPositioning(t *testing.T) {
	elapsed := func(offs []int64) time.Duration {
		k := sim.NewKernel(1)
		d := testDisk()
		var done sim.Time
		k.Go("r", func(p *sim.Proc) {
			for _, o := range offs {
				d.Read(p, 1, o, cacheBlock)
			}
			done = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Duration(done)
	}
	// Whole cache blocks, so every read misses and reaches the head:
	// contiguous misses pay readPos once (~12 ms), scattered ones four
	// times (~33 ms).
	seq := elapsed([]int64{0, cacheBlock, 2 * cacheBlock, 3 * cacheBlock})
	rnd := elapsed([]int64{0, 8 * cacheBlock, 2 * cacheBlock, 13 * cacheBlock})
	if rnd < seq+10*time.Millisecond {
		t.Fatalf("random %v vs sequential %v: positioning penalty missing", rnd, seq)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(16<<10, 4<<10) // 4 blocks
	c.insert(1, 0, 16<<10, 0)  // blocks 0..3 resident
	if miss := c.touch(1, 0, 16<<10, 0); miss != 0 {
		t.Fatalf("expected full residency, missing %d bytes", miss)
	}
	c.insert(1, 16<<10, 4<<10, 0) // block 4 evicts block 0 (LRU)
	if miss := c.touch(1, 0, 4<<10, 0); miss != 4<<10 {
		t.Fatalf("block 0 should be evicted, missing %d", miss)
	}
	if miss := c.touch(1, 4<<10, 12<<10, 0); miss != 0 {
		t.Fatalf("blocks 1..3 should remain, missing %d", miss)
	}
}

func TestLRUTouchRefreshesRecency(t *testing.T) {
	c := newLRU(8<<10, 4<<10) // 2 blocks
	c.insert(1, 0, 4<<10, 0)  // block 0
	c.insert(1, 4<<10, 4<<10, 0)
	c.touch(1, 0, 4<<10, 0)      // refresh block 0
	c.insert(1, 8<<10, 4<<10, 0) // should evict block 1, not 0
	if miss := c.touch(1, 0, 4<<10, 0); miss != 0 {
		t.Fatal("recently touched block was evicted")
	}
	if miss := c.touch(1, 4<<10, 4<<10, 0); miss == 0 {
		t.Fatal("least recently used block was not evicted")
	}
}

// Property: touch never reports more missing bytes than requested, and after
// insert the same range has zero missing bytes.
func TestPropertyCacheInsertThenTouch(t *testing.T) {
	f := func(file uint64, off uint32, n uint16) bool {
		c := newLRU(1<<30, 4<<10)
		o, ln := int64(off), int64(n)
		if miss := c.touch(file, o, ln, 0); miss > ln {
			return false
		}
		c.insert(file, o, ln, 0)
		return c.touch(file, o, ln, 0) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSlowFactorScalesService(t *testing.T) {
	run := func(factor float64) time.Duration {
		k := sim.NewKernel(1)
		d := testDisk()
		d.SetSlowFactor(factor)
		var done sim.Time
		k.Go("r", func(p *sim.Proc) {
			d.Read(p, 1, 0, 1<<20) // cold read: disk service
			done = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Duration(done)
	}
	healthy := run(1)
	slow := run(4)
	if slow <= 3*healthy || slow >= 5*healthy {
		t.Fatalf("4x slow disk served in %v vs healthy %v; want ~4x", slow, healthy)
	}
	if got := run(0.5); got != healthy {
		t.Fatalf("factor < 1 must clamp to healthy speed: %v vs %v", got, healthy)
	}
}

func TestSlowFactorRestores(t *testing.T) {
	k := sim.NewKernel(1)
	d := testDisk()
	d.SetSlowFactor(8)
	if d.SlowFactor() != 8 {
		t.Fatalf("SlowFactor = %v, want 8", d.SlowFactor())
	}
	d.SetSlowFactor(1)
	if d.SlowFactor() != 1 {
		t.Fatalf("SlowFactor after restore = %v, want 1", d.SlowFactor())
	}
	var done sim.Time
	k.Go("r", func(p *sim.Proc) {
		d.Read(p, 1, 0, 1<<20)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 MB at 50 MB/s + 7 ms positioning ~= 28 ms; an unrestored 8x factor
	// would take ~220 ms.
	if time.Duration(done) > 50*time.Millisecond {
		t.Fatalf("restored disk still slow: %v", time.Duration(done))
	}
}
