// Package mem implements the in-memory store.Store used by default under
// every server in this repository: the PVFS2 storage daemons and metadata
// server, and the NFSv4 data and metadata servers.  It provides a minimal
// POSIX-like namespace (directories, regular files), inode numbers, sparse
// file contents, and attributes.
//
// The store holds real bytes — reads return exactly what was written, and
// integration tests verify end-to-end data integrity through every protocol
// stack.  Timing is not modelled here; servers charge simdisk/simnet
// resources separately, and Sync is a no-op (memory is "durable" until the
// faults engine says otherwise).
//
// Paper mapping: the local file systems under the paper's servers (§6.1 —
// ext3 under the PVFS2 daemons, the exported namespace on the MDS); this
// package is deliberately timing-free so all performance behaviour comes
// from the protocol and resource models around it.
//
// Beyond store.Store, mem exports the hooks store/wal builds its
// checkpoint/replay on: Restore (re-create a node under a fixed id),
// ReserveID/LastID (id-allocator continuity), Extents and Walk
// (deterministic export of the live state).
package mem

import (
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"

	"dpnfs/internal/sim"
	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

type node struct {
	id       store.FileID
	isDir    bool
	size     int64
	change   uint64
	children map[string]*node // directories
	data     *sparse          // regular files
	parent   *node
	name     string
}

// Store is one in-memory file system.  All methods are safe for concurrent
// use (the TCP demo serves real goroutines); under simulation the kernel's
// cooperative scheduling makes the locking moot but harmless.
type Store struct {
	mu     sync.RWMutex
	root   *node
	byID   map[store.FileID]*node
	nextID store.FileID
	linked int // namespace-reachable inodes (Stats)
	// misdirect is the file armed for a one-shot wrong-block read
	// (MisdirectNextRead); 0 means none.  Guarded by misMu, not mu:
	// ReadAt consumes it under the read lock.
	misMu     sync.Mutex
	misdirect store.FileID
}

var (
	_ store.Store        = (*Store)(nil)
	_ store.Corruptible  = (*Store)(nil)
	_ store.SummedReader = (*Store)(nil)
	_ store.SummedWriter = (*Store)(nil)
	_ store.Reclaimer    = (*Store)(nil)
)

// New returns an empty store with a root directory (FileID 1).
func New() *Store {
	s := &Store{byID: make(map[store.FileID]*node), nextID: 1, linked: 1}
	s.root = &node{id: 1, isDir: true, children: make(map[string]*node)}
	s.byID[1] = s.root
	return s
}

// Root returns the root directory's id.
func (s *Store) Root() store.FileID { return 1 }

func (s *Store) alloc(isDir bool) *node {
	s.nextID++
	n := &node{id: s.nextID, isDir: isDir}
	if isDir {
		n.children = make(map[string]*node)
	} else {
		n.data = newSparse(n.id)
	}
	s.byID[n.id] = n
	return n
}

func (s *Store) dir(id store.FileID) (*node, error) {
	n, ok := s.byID[id]
	if !ok {
		return nil, store.ErrNotExist
	}
	if !n.isDir {
		return nil, store.ErrNotDir
	}
	return n, nil
}

func (s *Store) file(id store.FileID) (*node, error) {
	n, ok := s.byID[id]
	if !ok {
		return nil, store.ErrNotExist
	}
	if n.isDir {
		return nil, store.ErrIsDir
	}
	return n, nil
}

func checkName(name string) error {
	if name == "" || name == "." || name == ".." || strings.Contains(name, "/") {
		return store.ErrInval
	}
	return nil
}

// Lookup resolves name within directory dir.
func (s *Store) Lookup(dir store.FileID, name string) (store.Attr, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, err := s.dir(dir)
	if err != nil {
		return store.Attr{}, err
	}
	c, ok := d.children[name]
	if !ok {
		return store.Attr{}, store.ErrNotExist
	}
	return c.attr(), nil
}

// LookupPath resolves a slash-separated path from the root.
func (s *Store) LookupPath(p string) (store.Attr, error) {
	cur := s.Root()
	a := store.Attr{ID: cur, IsDir: true}
	for _, part := range strings.Split(path.Clean("/"+p), "/") {
		if part == "" {
			continue
		}
		var err error
		a, err = s.Lookup(cur, part)
		if err != nil {
			return store.Attr{}, err
		}
		cur = a.ID
	}
	return a, nil
}

func (n *node) attr() store.Attr {
	return store.Attr{ID: n.id, IsDir: n.isDir, Size: n.size, Change: n.change}
}

// GetAttr returns attributes of id.  Unlinked-but-open nodes remain
// addressable until reclaimed (Remove).
func (s *Store) GetAttr(id store.FileID) (store.Attr, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.byID[id]
	if !ok {
		return store.Attr{}, store.ErrNotExist
	}
	return n.attr(), nil
}

// Create makes a regular file in dir.  It fails with ErrExist if the name
// is taken.
func (s *Store) Create(dir store.FileID, name string) (store.Attr, error) {
	return s.mknod(dir, name, false)
}

// Mkdir makes a directory in dir.
func (s *Store) Mkdir(dir store.FileID, name string) (store.Attr, error) {
	return s.mknod(dir, name, true)
}

func (s *Store) mknod(dir store.FileID, name string, isDir bool) (store.Attr, error) {
	if err := checkName(name); err != nil {
		return store.Attr{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.dir(dir)
	if err != nil {
		return store.Attr{}, err
	}
	if _, dup := d.children[name]; dup {
		return store.Attr{}, store.ErrExist
	}
	n := s.alloc(isDir)
	n.parent, n.name = d, name
	d.children[name] = n
	d.change++
	s.linked++
	return n.attr(), nil
}

// Restore re-creates a node under a fixed id — the replay path of durable
// backends, where ids recorded in the log must come back exactly (clients
// hold them inside file handles).  The id allocator is advanced past id.
func (s *Store) Restore(dir store.FileID, name string, id store.FileID, isDir bool) (store.Attr, error) {
	if err := checkName(name); err != nil {
		return store.Attr{}, err
	}
	if id <= 1 {
		return store.Attr{}, store.ErrInval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.dir(dir)
	if err != nil {
		return store.Attr{}, err
	}
	if _, dup := d.children[name]; dup {
		return store.Attr{}, store.ErrExist
	}
	if _, dup := s.byID[id]; dup {
		return store.Attr{}, store.ErrExist
	}
	n := &node{id: id, isDir: isDir}
	if isDir {
		n.children = make(map[string]*node)
	} else {
		n.data = newSparse(id)
	}
	s.byID[id] = n
	if id > s.nextID {
		s.nextID = id
	}
	n.parent, n.name = d, name
	d.children[name] = n
	d.change++
	s.linked++
	return n.attr(), nil
}

// ReserveID advances the id allocator so no id <= id is handed out again.
// Durable backends record the allocator in their checkpoint: without it, a
// post-recovery Create could re-issue the id of a file removed before the
// checkpoint, aliasing a stale client handle.
func (s *Store) ReserveID(id store.FileID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id > s.nextID {
		s.nextID = id
	}
}

// LastID reports the highest id the allocator has issued.
func (s *Store) LastID() store.FileID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextID
}

// Remove unlinks name from dir.  Non-empty directories are refused.  The
// node stays addressable by id (open-but-unlinked semantics) until Reclaim,
// or until a durable backend rebuilds its image at recovery.
func (s *Store) Remove(dir store.FileID, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, err := s.dir(dir)
	if err != nil {
		return err
	}
	c, ok := d.children[name]
	if !ok {
		return store.ErrNotExist
	}
	if c.isDir && len(c.children) > 0 {
		return store.ErrNotEmpty
	}
	delete(d.children, name)
	c.parent, c.name = nil, ""
	d.change++
	s.linked--
	return nil
}

// Reclaim implements store.Reclaimer: it forgets the unlinked node id and
// hands its chunk slabs back to the pool.  Readers copy out under the read
// lock, so no slab is in use once Reclaim holds the write lock.
func (s *Store) Reclaim(id store.FileID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.byID[id]
	if !ok {
		return store.ErrNotExist
	}
	if n.parent != nil || n == s.root {
		return store.ErrInval
	}
	delete(s.byID, id)
	if n.data != nil {
		for _, c := range n.data.chunks {
			putChunk(c)
		}
	}
	return nil
}

// Rename moves srcName in srcDir to dstName in dstDir, replacing a
// same-kind target if present.  Renaming a node onto itself is a no-op;
// renaming a directory into its own subtree is refused with ErrInval;
// replacing a non-empty directory is refused with ErrNotEmpty.  A replaced
// node stays addressable by id, like Remove.
func (s *Store) Rename(srcDir store.FileID, srcName string, dstDir store.FileID, dstName string) error {
	if err := checkName(dstName); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sd, err := s.dir(srcDir)
	if err != nil {
		return err
	}
	dd, err := s.dir(dstDir)
	if err != nil {
		return err
	}
	c, ok := sd.children[srcName]
	if !ok {
		return store.ErrNotExist
	}
	if c.isDir {
		// A directory must not become its own ancestor.
		for a := dd; a != nil; a = a.parent {
			if a == c {
				return store.ErrInval
			}
		}
	}
	if old, ok := dd.children[dstName]; ok {
		if old == c {
			return nil // rename onto itself: POSIX no-op
		}
		if old.isDir != c.isDir {
			if old.isDir {
				return store.ErrIsDir
			}
			return store.ErrNotDir
		}
		if old.isDir && len(old.children) > 0 {
			return store.ErrNotEmpty
		}
		old.parent, old.name = nil, ""
		s.linked--
	}
	delete(sd.children, srcName)
	dd.children[dstName] = c
	c.parent, c.name = dd, dstName
	sd.change++
	dd.change++
	return nil
}

// ReadDir lists dir in lexical order.
func (s *Store) ReadDir(dir store.FileID) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, err := s.dir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(d.children))
	for name := range d.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// WriteAt writes b at off, extending the file as needed, and returns the
// new size.
func (s *Store) WriteAt(id store.FileID, off int64, b []byte) (int64, error) {
	if off < 0 {
		return 0, store.ErrInval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.file(id)
	if err != nil {
		return 0, err
	}
	n.data.writeAt(off, b)
	if end := off + int64(len(b)); end > n.size {
		n.size = end
	}
	n.change++
	return n.size, nil
}

// resalter converts a writer's chunk sums to the store's salts
// (WriteSummedAt); built on first use.
var resalter = sync.OnceValue(func() *xdr.Resalter { return xdr.NewResalter(chunkSize) })

// WriteSummedAt implements store.SummedWriter.  Each summed chunk is copied
// into a fresh slab and summed under the store's salt in that one pass
// (xdr.CopyChecksum); the writer's sum, converted to the same salt
// (xdr.Resalter), must equal it.  The slabs replace the file's chunks only
// when every sum matched, so a failed write leaves the file as it was.  The
// bytes outside the summed run are written as WriteAt writes them.
func (s *Store) WriteSummedAt(id store.FileID, off int64, b []byte, sums store.BlockSums) (int64, error) {
	if off < 0 {
		return 0, store.ErrInval
	}
	head, k := store.SumsHead(off), int64(len(sums.Sums))
	if k == 0 {
		return s.WriteAt(id, off, b)
	}
	if head+k*chunkSize > int64(len(b)) {
		return 0, store.ErrInval
	}
	first := (off + head) / chunkSize
	var stack [32]sealedChunk
	sealed := stack[:0]
	release := func() {
		for _, c := range sealed {
			putChunk(c.slab)
		}
	}
	rs := resalter()
	for i := range k {
		salt := chunkSalt(id, first+i)
		slab := getChunk(false)
		lo := head + i*chunkSize
		sum := xdr.CopyChecksum(xdr.ChecksumSalted(salt, nil), slab, b[lo:lo+chunkSize])
		sealed = append(sealed, sealedChunk{slab, sum})
		if rs.Resalt(sums.Sums[i], sums.Salt0+uint64(i), salt) != sum {
			release()
			return 0, store.ErrCorrupt
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.file(id)
	if err != nil {
		release()
		return 0, err
	}
	sp := n.data
	sp.writeAt(off, b[:head])
	for i, c := range sealed {
		ci := first + int64(i)
		if old, ok := sp.chunks[ci]; ok {
			putChunk(old)
		}
		sp.chunks[ci], sp.sums[ci] = c.slab, c.sum
	}
	tail := head + k*chunkSize
	sp.writeAt(off+tail, b[tail:])
	if end := off + int64(len(b)); end > n.size {
		n.size = end
	}
	n.change++
	return n.size, nil
}

// sealedChunk is a chunk slab filled and summed by WriteSummedAt, waiting
// for every sum of its write to match before it is installed.
type sealedChunk struct {
	slab []byte
	sum  uint32
}

// WriteSyntheticAt records a write of n zero bytes at off without storing
// chunks: only the size and change counter advance.  Benchmarks move
// simulated terabytes through this path.
func (s *Store) WriteSyntheticAt(id store.FileID, off, n int64) (int64, error) {
	if off < 0 || n < 0 {
		return 0, store.ErrInval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file(id)
	if err != nil {
		return 0, err
	}
	if end := off + n; end > f.size {
		f.size = end
	}
	f.change++
	return f.size, nil
}

// ReadAt reads up to len(b) bytes at off; short reads happen at EOF.  Holes
// read as zeros.
func (s *Store) ReadAt(id store.FileID, off int64, b []byte) (int, error) {
	return s.read(id, off, b, nil)
}

// ReadSummedAt implements store.SummedReader: the sums are the ones ReadAt
// verifies anyway, kept instead of dropped.
func (s *Store) ReadSummedAt(id store.FileID, off int64, b []byte) (int, store.BlockSums, error) {
	var sums store.BlockSums
	n, err := s.read(id, off, b, &sums)
	if err != nil {
		return 0, store.BlockSums{}, err
	}
	return n, sums, nil
}

// read is ReadAt, collecting the whole chunks' sums into sums when non-nil.
func (s *Store) read(id store.FileID, off int64, b []byte, sums *store.BlockSums) (int, error) {
	if off < 0 {
		return 0, store.ErrInval
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.file(id)
	if err != nil {
		return 0, err
	}
	if off >= n.size {
		return 0, nil
	}
	avail := n.size - off
	if int64(len(b)) > avail {
		b = b[:avail]
	}
	misdirect := s.takeMisdirect(id)
	fired, err := n.data.readAt(off, b, misdirect, sums)
	if misdirect && !fired {
		// The read touched no materialized chunk with a donor; the wrong
		// block is still waiting to be served.
		s.armMisdirect(id)
	}
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// takeMisdirect consumes the one-shot misdirect arm if it targets id.
func (s *Store) takeMisdirect(id store.FileID) bool {
	s.misMu.Lock()
	defer s.misMu.Unlock()
	if s.misdirect != id {
		return false
	}
	s.misdirect = 0
	return true
}

// armMisdirect arms (or re-arms) the one-shot misdirect for id.
func (s *Store) armMisdirect(id store.FileID) {
	s.misMu.Lock()
	s.misdirect = id
	s.misMu.Unlock()
}

// Truncate sets the file size, discarding or zero-extending content.
func (s *Store) Truncate(id store.FileID, size int64) error {
	if size < 0 {
		return store.ErrInval
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.file(id)
	if err != nil {
		return err
	}
	if size < n.size {
		n.data.truncate(size)
	}
	n.size = size
	n.change++
	return nil
}

// SetSize extends the file size if size is larger (pNFS LAYOUTCOMMIT
// semantics: the client reports a possibly-extended size after direct I/O).
func (s *Store) SetSize(id store.FileID, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.file(id)
	if err != nil {
		return err
	}
	if size > n.size {
		n.size = size
		n.change++
	}
	return nil
}

// Sync is a no-op: memory has no durability point.  It satisfies
// store.Content so servers can call Sync unconditionally.
func (s *Store) Sync(p *sim.Proc) error { return nil }

// CorruptChunk implements store.Corruptible: it flips one readable byte in
// one materialized chunk — chosen deterministically from seed — without
// resealing the checksum, modelling media bit rot.  It reports whether any
// chunk was eligible (a store holding only synthetic/hole data has no bytes
// to rot).
func (s *Store) CorruptChunk(seed int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	type loc struct {
		id store.FileID
		ci int64
	}
	var locs []loc
	ids := make([]store.FileID, 0, len(s.byID))
	for id := range s.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := s.byID[id]
		if n.data == nil {
			continue
		}
		cis := make([]int64, 0, len(n.data.chunks))
		for ci := range n.data.chunks {
			// Only bytes below the file size are ever served; rot past EOF
			// would be undetectable and unrepairable by design.
			if ci*chunkSize < n.size {
				cis = append(cis, ci)
			}
		}
		sort.Slice(cis, func(i, j int) bool { return cis[i] < cis[j] })
		for _, ci := range cis {
			locs = append(locs, loc{id, ci})
		}
	}
	if len(locs) == 0 {
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	l := locs[rng.Intn(len(locs))]
	n := s.byID[l.id]
	span := n.size - l.ci*chunkSize
	if span > chunkSize {
		span = chunkSize
	}
	n.data.chunks[l.ci][rng.Int63n(span)] ^= 0xFF
	return true
}

// MisdirectNextRead implements store.Corruptible: it arms a one-shot
// wrong-block read against a file chosen deterministically from seed.  Only
// files with at least two materialized chunks are eligible — a misdirected
// read needs a wrong block to serve.  It reports whether a victim was found.
func (s *Store) MisdirectNextRead(seed int64) bool {
	s.mu.RLock()
	var ids []store.FileID
	for id, n := range s.byID {
		if n.data != nil && len(n.data.chunks) >= 2 {
			ids = append(ids, id)
		}
	}
	s.mu.RUnlock()
	if len(ids) == 0 {
		return false
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rng := rand.New(rand.NewSource(seed))
	s.armMisdirect(ids[rng.Intn(len(ids))])
	return true
}

// Stats reports the number of live (namespace-reachable) inodes.
func (s *Store) Stats() (inodes int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.linked
}

// Chunks reports how many chunk slabs the store's files hold, linked or
// not: the memory Reclaim gives back.
func (s *Store) Chunks() (n int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, nd := range s.byID {
		if nd.data != nil {
			n += len(nd.data.chunks)
		}
	}
	return n
}

// Extent is a materialized byte range of a file (Extents).
type Extent struct {
	Off int64
	Len int64
}

// maxExtent caps how far adjacent chunks are merged into one extent, so a
// checkpoint record's payload stays well under xdr.MaxOpaque.
const maxExtent = 4 << 20

// Extents returns the materialized (chunk-backed) ranges of file id, merged
// when adjacent, clipped to the file size, in ascending order.  Holes and
// synthetic writes produce no extents.  Durable backends checkpoint file
// bytes through this.
func (s *Store) Extents(id store.FileID) ([]Extent, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.file(id)
	if err != nil {
		return nil, err
	}
	if len(n.data.chunks) == 0 || n.size == 0 {
		return nil, nil
	}
	idxs := make([]int64, 0, len(n.data.chunks))
	for ci := range n.data.chunks {
		idxs = append(idxs, ci)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var out []Extent
	for _, ci := range idxs {
		lo := ci * chunkSize
		hi := lo + chunkSize
		if lo >= n.size {
			break
		}
		if hi > n.size {
			hi = n.size
		}
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.Off+last.Len == lo && last.Len+hi-lo <= maxExtent {
				last.Len += hi - lo
				continue
			}
		}
		out = append(out, Extent{Off: lo, Len: hi - lo})
	}
	return out, nil
}

// Walk visits every namespace-reachable node except the root, parents
// before children, siblings in lexical order, calling fn(parent dir id,
// name, attributes).  The order is deterministic, which keeps durable
// checkpoints byte-stable.  Unlinked-but-open nodes are not visited — a
// checkpoint reclaims them.
func (s *Store) Walk(fn func(dir store.FileID, name string, at store.Attr) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var walk func(d *node) error
	walk = func(d *node) error {
		names := make([]string, 0, len(d.children))
		for name := range d.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := d.children[name]
			if err := fn(d.id, name, c.attr()); err != nil {
				return err
			}
			if c.isDir {
				if err := walk(c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(s.root)
}

// sparse stores file bytes in fixed-size chunks allocated on demand; holes
// read as zeros.  Parallel-FS stripe objects are naturally sparse (each
// storage node holds every k-th stripe unit at its logical offset).
//
// Every materialized chunk carries a CRC32C over its full slab, salted with
// (file id, chunk index): reads verify it, so bit rot surfaces as
// store.ErrCorrupt instead of silently wrong bytes, and the location salt
// means even a byte-identical block served from the wrong place (a
// misdirected read) fails verification when content differs per location.
// Holes have no chunk, no sum, and nothing to rot.
type sparse struct {
	id     store.FileID
	chunks map[int64][]byte
	sums   map[int64]uint32
}

const chunkSize = store.ChunkSize

// chunkSalt binds a chunk's checksum to its location.  File ids and chunk
// indexes both stay far below 2^32 in this repository, so packing them into
// one word keeps every (file, chunk) salt distinct.
func (sp *sparse) chunkSalt(ci int64) uint64 { return chunkSalt(sp.id, ci) }

func chunkSalt(id store.FileID, ci int64) uint64 {
	return uint64(id)<<32 | uint64(uint32(ci))
}

// reseal recomputes the checksum of a materialized chunk after a legitimate
// mutation.
func (sp *sparse) reseal(ci int64) {
	sp.sums[ci] = xdr.ChecksumSalted(sp.chunkSalt(ci), sp.chunks[ci])
}

// chunkFree recycles chunk slabs across files and stores: truncation feeds
// it, so a server that truncates and rewrites files does not allocate its
// working set again chunk by chunk.  A plain guarded slice, not a
// sync.Pool: Put(&c) would box the slice header and cost the very alloc the
// pool is here to save.  maxFreeChunks bounds retention (64 MiB); overflow
// falls to GC.
var chunkFree struct {
	sync.Mutex
	free [][]byte
}

const maxFreeChunks = 1024

// getChunk returns a chunk slab, zeroed unless the caller is about to
// overwrite all of it (recycled slabs come back holding old bytes, and
// holes must read as zeros).
func getChunk(zero bool) []byte {
	chunkFree.Lock()
	var c []byte
	if n := len(chunkFree.free); n > 0 {
		c = chunkFree.free[n-1]
		chunkFree.free[n-1] = nil
		chunkFree.free = chunkFree.free[:n-1]
	}
	chunkFree.Unlock()
	if c == nil {
		return make([]byte, chunkSize)
	}
	if zero {
		clear(c)
	}
	return c
}

func putChunk(c []byte) {
	chunkFree.Lock()
	if len(chunkFree.free) < maxFreeChunks {
		chunkFree.free = append(chunkFree.free, c)
	}
	chunkFree.Unlock()
}

func newSparse(id store.FileID) *sparse {
	return &sparse{id: id, chunks: make(map[int64][]byte), sums: make(map[int64]uint32)}
}

func (sp *sparse) writeAt(off int64, b []byte) {
	for len(b) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		c, ok := sp.chunks[ci]
		if !ok {
			c = getChunk(co != 0 || int64(len(b)) < chunkSize)
			sp.chunks[ci] = c
		}
		// Copy and reseal in one pass: the sum runs over the untouched
		// prefix, the new bytes as they land, and the untouched suffix.
		n := min(len(b), chunkSize-int(co))
		sum := xdr.CopyChecksum(xdr.ChecksumSalted(sp.chunkSalt(ci), c[:co]), c[co:], b)
		sp.sums[ci] = xdr.ChecksumUpdate(sum, c[co+int64(n):])
		b = b[n:]
		off += int64(n)
	}
}

// readAt fills b from off, verifying the checksum of every materialized
// chunk it touches as it copies the chunk out (xdr.CopyChecksum: one pass
// over the bytes), the unread prefix and suffix of a partly read chunk
// summed in place.  With sums non-nil it keeps the verified sums of the
// whole chunks read, from the first chunk boundary at or after off to the
// first hole or partial chunk (store.SummedReader).  misdirect serves one
// touched chunk's bytes from the next materialized chunk of the same file —
// the wrong-block model — which the location-salted sums then catch; fired
// reports whether that injection found a block to misdirect.
func (sp *sparse) readAt(off int64, b []byte, misdirect bool, sums *store.BlockSums) (fired bool, err error) {
	collect := sums != nil
	for len(b) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		n := min(chunkSize-int(co), len(b))
		c, ok := sp.chunks[ci]
		if ok {
			if misdirect {
				if donor, dok := sp.donorChunk(ci); dok {
					c = donor
					misdirect = false
					fired = true
				}
			}
			sum := xdr.CopyChecksum(xdr.ChecksumSalted(sp.chunkSalt(ci), c[:co]), b[:n], c[co:])
			if xdr.ChecksumUpdate(sum, c[co+int64(n):]) != sp.sums[ci] {
				return fired, store.ErrCorrupt
			}
			if collect && n == chunkSize {
				if sums.Sums == nil {
					sums.Salt0 = sp.chunkSalt(ci)
					sums.Sums = make([]uint32, 0, len(b)/chunkSize)
				}
				sums.Sums = append(sums.Sums, sum)
			}
		} else {
			clear(b[:n])
		}
		// A hole or a partial chunk ends the run of sums, unless it is the
		// partial chunk a read starting mid-chunk begins with.
		if (!ok || n < chunkSize) && co == 0 {
			collect = false
		}
		b = b[n:]
		off += int64(n)
	}
	return fired, nil
}

// donorChunk picks the materialized chunk that a misdirected read serves in
// place of ci: the next index in ascending order, wrapping.  A single-chunk
// file has no wrong block to serve and the injection stays armed.
func (sp *sparse) donorChunk(ci int64) ([]byte, bool) {
	idxs := make([]int64, 0, len(sp.chunks))
	for i := range sp.chunks {
		if i != ci {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return nil, false
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, i := range idxs {
		if i > ci {
			return sp.chunks[i], true
		}
	}
	return sp.chunks[idxs[0]], true
}

func (sp *sparse) truncate(size int64) {
	lastChunk := size / chunkSize
	for ci, c := range sp.chunks {
		switch {
		case ci > lastChunk:
			delete(sp.chunks, ci)
			delete(sp.sums, ci)
			putChunk(c)
		case ci == lastChunk:
			keep := size % chunkSize
			for i := keep; i < chunkSize; i++ {
				c[i] = 0
			}
			sp.reseal(ci)
		}
	}
}
