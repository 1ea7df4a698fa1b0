// Package simdisk models a storage node's disk and page cache.
//
// The disk is a FIFO head with sequential bandwidth and a positioning
// penalty for non-contiguous accesses.  Writes are buffered: they complete
// into the write-behind buffer immediately and drain to the platter
// asynchronously, but a writer whose backlog exceeds the dirty limit blocks
// until the disk catches up — so sustained write throughput converges to
// disk bandwidth while short bursts complete at memory speed.  This mirrors
// both PVFS2's "buffer on storage nodes, flush on fsync" behaviour and the
// Linux page cache on an NFS data server (paper §5, §6.2).
//
// Reads consult a block-granular LRU page cache; only misses pay for disk
// service.  The paper's read experiments run against a warm server cache
// (§6.2), which the Warm method provides.
//
// Paper mapping: every storage node of the §6.1 testbed has one 7200 RPM
// ATA/100 disk with ~2 MB of on-disk cache behind a local file system, and
// 2 GB of RAM.  DefaultConfig gives its bandwidths and cache size; the
// rest of the model is fixed:
//
//	readPos     7 ms     seek + rotation before a non-contiguous read
//	writePos    400 µs   the same for a write: the write-behind path
//	                     reorders and journal-commits random writes
//	                     (elevator scheduling), so they pay no full seek
//	dirtyLimit  2 s      write backlog, as drain time, before writers block
//	cacheBlock  64 KiB   page-cache block
//	warmPenalty 15 µs    memory copy of a cache hit or a buffered write
//	syncCost    1.5 ms   the write barrier of a synchronous flush (fsync,
//	                     NFS COMMIT): the head completes it, not just drains
package simdisk

import (
	"fmt"
	"time"

	"dpnfs/internal/sim"
)

// The fixed part of the disk model (see the package doc).
const (
	readPos     = 7 * time.Millisecond
	writePos    = 400 * time.Microsecond
	dirtyLimit  = 2 * time.Second
	cacheBlock  = 64 << 10
	warmPenalty = 15 * time.Microsecond
	syncCost    = 1500 * time.Microsecond
)

// Config describes one disk.
type Config struct {
	Name       string
	ReadBPS    float64 // sequential read bandwidth, bytes/sec
	WriteBPS   float64 // sequential write bandwidth, bytes/sec
	CacheBytes int64   // page cache capacity
}

// DefaultConfig models the paper's disk: ~45 MB/s raw sequential, with
// journal and allocation overhead bringing effective streaming write
// bandwidth to the ~20 MB/s per node the paper measures in aggregate.
func DefaultConfig(name string) Config {
	return Config{
		Name:       name,
		ReadBPS:    45e6,
		WriteBPS:   21e6,
		CacheBytes: 1 << 31, // 2 GB RAM
	}
}

// Disk is a simulated disk plus page cache.  Read, Write and Sync are model
// charges: on a nil Disk (no disk modelled) or with a nil process (real-time
// mode, where the store does real work instead) they charge nothing — the
// rule rpc.Ctx.UseCPU follows — so servers call them unconditionally.
type Disk struct {
	cfg   Config
	head  *sim.FIFOServer
	end   map[uint64]int64 // fileID -> offset just past the last access
	cache *lru

	// slow scales head service time (fault injection: a degraded disk,
	// internal/faults.SlowDisk).  1 means healthy.
	slow float64

	reads, writes, hits, misses uint64
	bytesRead, bytesWritten     int64
}

// SetSlowFactor scales the disk's service time by factor (>= 1); factor 1
// (or less) restores full speed.  Only the platter path slows down — cache
// hits and write-buffer inserts still run at memory speed, as on a real
// machine with a failing spindle.
func (d *Disk) SetSlowFactor(factor float64) {
	if factor < 1 {
		factor = 1
	}
	d.slow = factor
}

// SlowFactor reports the current service-time scale.
func (d *Disk) SlowFactor() float64 {
	if d.slow < 1 {
		return 1
	}
	return d.slow
}

// New creates a disk from cfg.
func New(cfg Config) *Disk {
	return &Disk{
		cfg:   cfg,
		head:  sim.NewFIFOServer(cfg.Name + "/head"),
		end:   make(map[uint64]int64),
		cache: newLRU(cfg.CacheBytes, cacheBlock),
	}
}

func (d *Disk) service(fileID uint64, off, n int64, bps float64, pos time.Duration) time.Duration {
	svc := time.Duration(float64(n) / bps * 1e9)
	if last, ok := d.end[fileID]; !ok || last != off {
		svc += pos
	}
	d.end[fileID] = off + n
	if d.slow > 1 {
		svc = time.Duration(float64(svc) * d.slow)
	}
	return svc
}

// Write completes a write of n bytes at off in fileID.  The data lands in
// the write-behind buffer and the page cache; p blocks only when the dirty
// backlog exceeds the configured limit.
func (d *Disk) Write(p *sim.Proc, fileID uint64, off, n int64) {
	if d == nil || p == nil {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("simdisk %s: negative write %d", d.cfg.Name, n))
	}
	d.writes++
	d.bytesWritten += n
	d.cache.insert(fileID, off, n, p.Now())
	svc := d.service(fileID, off, n, d.cfg.WriteBPS, writePos)
	done := d.head.Reserve(p.Now(), svc)
	if backlog := done - p.Now(); backlog > sim.Time(dirtyLimit) {
		p.SleepUntilTime(done - sim.Time(dirtyLimit))
	} else {
		p.Sleep(warmPenalty) // memory copy into the buffer
	}
}

// Sync blocks p until all buffered writes have reached the platter, then
// pays the write-barrier cost on the head (queued FIFO with other work).
func (d *Disk) Sync(p *sim.Proc) {
	if d == nil || p == nil {
		return
	}
	p.SleepUntilTime(d.head.FreeAt())
	cost := syncCost
	if d.slow > 1 {
		cost = time.Duration(float64(cost) * d.slow)
	}
	d.head.Use(p, cost)
}

// Read completes a read of n bytes at off in fileID, consulting the page
// cache block by block; only missing blocks pay for disk service.
func (d *Disk) Read(p *sim.Proc, fileID uint64, off, n int64) {
	if d == nil || p == nil {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("simdisk %s: negative read %d", d.cfg.Name, n))
	}
	d.reads++
	d.bytesRead += n
	missBytes := d.cache.touch(fileID, off, n, p.Now())
	if missBytes == 0 {
		d.hits++
		p.Sleep(warmPenalty)
		return
	}
	d.misses++
	svc := d.service(fileID, off, missBytes, d.cfg.ReadBPS, readPos)
	d.head.Use(p, svc)
	d.cache.insert(fileID, off, n, p.Now())
}

// Warm marks the byte range as cache-resident, as the paper does before its
// read experiments ("Read experiments use a warm server cache").
func (d *Disk) Warm(fileID uint64, off, n int64) {
	d.cache.insert(fileID, off, n, 0)
}

// Stats reports operation counts for tests and traces.
func (d *Disk) Stats() (reads, writes, hits, misses uint64, bytesRead, bytesWritten int64) {
	return d.reads, d.writes, d.hits, d.misses, d.bytesRead, d.bytesWritten
}

// BusyTime reports cumulative head service time.
func (d *Disk) BusyTime() time.Duration { return d.head.BusyTime() }

// lru is a block-granular LRU page cache.
type lru struct {
	capBlocks int64
	blockSize int64
	blocks    map[blockKey]*blockEntry
	// Intrusive doubly-linked LRU list; head is most recent.
	head, tail *blockEntry
}

type blockKey struct {
	file uint64
	idx  int64
}

type blockEntry struct {
	key        blockKey
	prev, next *blockEntry
}

func newLRU(capBytes, blockSize int64) *lru {
	return &lru{
		capBlocks: capBytes / blockSize,
		blockSize: blockSize,
		blocks:    make(map[blockKey]*blockEntry),
	}
}

func (c *lru) unlink(e *blockEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *lru) pushFront(e *blockEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// insert makes the blocks covering [off, off+n) resident.
func (c *lru) insert(file uint64, off, n int64, _ sim.Time) {
	if n <= 0 {
		return
	}
	first, last := off/c.blockSize, (off+n-1)/c.blockSize
	for i := first; i <= last; i++ {
		k := blockKey{file, i}
		if e, ok := c.blocks[k]; ok {
			c.unlink(e)
			c.pushFront(e)
			continue
		}
		e := &blockEntry{key: k}
		c.blocks[k] = e
		c.pushFront(e)
		for int64(len(c.blocks)) > c.capBlocks && c.tail != nil {
			victim := c.tail
			c.unlink(victim)
			delete(c.blocks, victim.key)
		}
	}
}

// touch returns the number of bytes in [off, off+n) NOT resident in cache,
// refreshing the recency of resident blocks.
func (c *lru) touch(file uint64, off, n int64, _ sim.Time) int64 {
	if n <= 0 {
		return 0
	}
	var missing int64
	first, last := off/c.blockSize, (off+n-1)/c.blockSize
	for i := first; i <= last; i++ {
		k := blockKey{file, i}
		lo := i * c.blockSize
		hi := lo + c.blockSize
		if lo < off {
			lo = off
		}
		if hi > off+n {
			hi = off + n
		}
		if e, ok := c.blocks[k]; ok {
			c.unlink(e)
			c.pushFront(e)
		} else {
			missing += hi - lo
		}
	}
	return missing
}
