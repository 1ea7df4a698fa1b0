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
package simdisk

import (
	"fmt"
	"time"

	"dpnfs/internal/sim"
)

// Config describes one disk.
type Config struct {
	Name     string
	ReadBPS  float64       // sequential read bandwidth, bytes/sec
	WriteBPS float64       // sequential write bandwidth, bytes/sec
	Position time.Duration // seek + rotational cost for non-contiguous reads
	// WritePos is the positioning cost for non-contiguous writes.  It is
	// much smaller than Position: the write-behind path reorders and
	// journal-commits random writes (elevator scheduling), so they do not
	// pay a full mechanical seek each.
	WritePos    time.Duration
	DirtyLimit  time.Duration // max write backlog (as drain time) before writers block
	CacheBytes  int64         // page cache capacity
	CacheBlock  int64         // cache block size
	WarmPenalty time.Duration // per-request memory-copy cost on a cache hit
	// SyncCost is the journal/barrier cost of a synchronous flush (fsync,
	// NFS COMMIT): the head must complete a write barrier, not just drain.
	SyncCost time.Duration
}

// DefaultConfig models the paper's 7200 RPM ATA/100 disk with ~2 MB on-disk
// cache behind a local file system: ~45 MB/s raw sequential, with journal
// and allocation overhead bringing effective streaming write bandwidth to
// the ~20 MB/s per node the paper measures in aggregate.
func DefaultConfig(name string) Config {
	return Config{
		Name:        name,
		ReadBPS:     45e6,
		WriteBPS:    21e6,
		Position:    7 * time.Millisecond,
		WritePos:    400 * time.Microsecond,
		DirtyLimit:  2 * time.Second,
		CacheBytes:  1 << 31, // 2 GB RAM
		CacheBlock:  64 << 10,
		WarmPenalty: 15 * time.Microsecond,
		SyncCost:    1500 * time.Microsecond,
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

// New creates a disk from cfg, applying DefaultConfig values for zero fields.
func New(cfg Config) *Disk {
	def := DefaultConfig(cfg.Name)
	if cfg.ReadBPS == 0 {
		cfg.ReadBPS = def.ReadBPS
	}
	if cfg.WriteBPS == 0 {
		cfg.WriteBPS = def.WriteBPS
	}
	if cfg.Position == 0 {
		cfg.Position = def.Position
	}
	if cfg.WritePos == 0 {
		cfg.WritePos = def.WritePos
	}
	if cfg.DirtyLimit == 0 {
		cfg.DirtyLimit = def.DirtyLimit
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = def.CacheBytes
	}
	if cfg.CacheBlock == 0 {
		cfg.CacheBlock = def.CacheBlock
	}
	if cfg.WarmPenalty == 0 {
		cfg.WarmPenalty = def.WarmPenalty
	}
	if cfg.SyncCost == 0 {
		cfg.SyncCost = def.SyncCost
	}
	return &Disk{
		cfg:   cfg,
		head:  sim.NewFIFOServer(cfg.Name + "/head"),
		end:   make(map[uint64]int64),
		cache: newLRU(cfg.CacheBytes, cfg.CacheBlock),
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
	svc := d.service(fileID, off, n, d.cfg.WriteBPS, d.cfg.WritePos)
	done := d.head.Reserve(p.Now(), svc)
	if backlog := done - p.Now(); backlog > sim.Time(d.cfg.DirtyLimit) {
		p.SleepUntilTime(done - sim.Time(d.cfg.DirtyLimit))
	} else {
		p.Sleep(d.cfg.WarmPenalty) // memory copy into the buffer
	}
}

// Sync blocks p until all buffered writes have reached the platter, then
// pays the write-barrier cost on the head (queued FIFO with other work).
func (d *Disk) Sync(p *sim.Proc) {
	if d == nil || p == nil {
		return
	}
	p.SleepUntilTime(d.head.FreeAt())
	cost := d.cfg.SyncCost
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
		p.Sleep(d.cfg.WarmPenalty)
		return
	}
	d.misses++
	svc := d.service(fileID, off, missBytes, d.cfg.ReadBPS, d.cfg.Position)
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
	if blockSize <= 0 {
		panic("simdisk: cache block size must be positive")
	}
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
