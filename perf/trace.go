package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/store"
)

// Everything here observes the program from outside: spans around the
// calls this package makes into cluster.Mount, a timing wrapper around the
// stores (the one layer boundary cluster.Config lets a caller inject), the
// cluster's own metrics registry, and the Go runtime's counters.

// ---- application spans ----

// span is one timed call.  A "pass" span (one sequential sweep, or one
// small-file transaction) is the parent of the Mount calls made inside it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the first span of the mount
	Dur    int64  `json:"dur_ns"`
}

// maxSpansKept bounds the spans a mount keeps for the trace file; every
// span's duration is kept for the percentiles regardless.
const maxSpansKept = 20000

// spanBuf records one mount's spans; the mount's goroutine owns it.
type spanBuf struct {
	mount  int
	t0     time.Time
	spans  []span
	total  int
	parent int // ID of the open pass span, 0 outside one
	durMs  map[string][]float64
	// childNs sums the Mount-call time inside pass spans, so a pass's self
	// time (verification, loop overhead) is its duration minus this.
	passNs, childNs int64
}

func (b *spanBuf) start() (id int, at time.Time) {
	at = time.Now()
	if b.t0.IsZero() {
		b.t0 = at
		b.durMs = make(map[string][]float64)
	}
	b.total++
	return b.total, at
}

func (b *spanBuf) finish(id int, name string, at time.Time) {
	d := time.Since(at)
	b.durMs[name] = append(b.durMs[name], float64(d)/1e6)
	parent := b.parent
	if name == "pass" {
		parent = 0
		b.passNs += int64(d)
	} else if parent != 0 {
		b.childNs += int64(d)
	}
	if len(b.spans) < maxSpansKept {
		b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name, Start: int64(at.Sub(b.t0)), Dur: int64(d)})
	}
}

// appMount is cluster.Mount as the workloads call it.  With tr nil every
// method is a plain call; with tr set every call is a span.
type appMount struct {
	m  *cluster.Mount
	tr *spanBuf
}

// passSpan is an open pass span.
type passSpan struct {
	id int
	at time.Time
}

func (a *appMount) begin() passSpan {
	if a.tr == nil {
		return passSpan{}
	}
	id, at := a.tr.start()
	a.tr.parent = id
	return passSpan{id, at}
}

func (a *appMount) end(p passSpan) {
	if a.tr == nil {
		return
	}
	a.tr.parent = 0
	a.tr.finish(p.id, "pass", p.at)
}

func (a *appMount) Open(ctx *rpc.Ctx, path string) (*cluster.File, error) {
	if a.tr == nil {
		return a.m.Open(ctx, path)
	}
	id, at := a.tr.start()
	f, err := a.m.Open(ctx, path)
	a.tr.finish(id, "open", at)
	return f, err
}

func (a *appMount) Create(ctx *rpc.Ctx, path string) (*cluster.File, error) {
	if a.tr == nil {
		return a.m.Create(ctx, path)
	}
	id, at := a.tr.start()
	f, err := a.m.Create(ctx, path)
	a.tr.finish(id, "create", at)
	return f, err
}

func (a *appMount) Read(ctx *rpc.Ctx, f *cluster.File, off, n int64) (payload.Payload, int64, error) {
	if a.tr == nil {
		return a.m.Read(ctx, f, off, n)
	}
	id, at := a.tr.start()
	pl, got, err := a.m.Read(ctx, f, off, n)
	a.tr.finish(id, "read", at)
	return pl, got, err
}

func (a *appMount) Write(ctx *rpc.Ctx, f *cluster.File, off int64, data payload.Payload) error {
	if a.tr == nil {
		return a.m.Write(ctx, f, off, data)
	}
	id, at := a.tr.start()
	err := a.m.Write(ctx, f, off, data)
	a.tr.finish(id, "write", at)
	return err
}

func (a *appMount) Fsync(ctx *rpc.Ctx, f *cluster.File) error {
	if a.tr == nil {
		return a.m.Fsync(ctx, f)
	}
	id, at := a.tr.start()
	err := a.m.Fsync(ctx, f)
	a.tr.finish(id, "fsync", at)
	return err
}

func (a *appMount) Close(ctx *rpc.Ctx, f *cluster.File) error {
	if a.tr == nil {
		return a.m.Close(ctx, f)
	}
	id, at := a.tr.start()
	err := a.m.Close(ctx, f)
	a.tr.finish(id, "close", at)
	return err
}

func (a *appMount) Stat(ctx *rpc.Ctx, f *cluster.File) (int64, error) {
	if a.tr == nil {
		return a.m.Stat(ctx, f)
	}
	id, at := a.tr.start()
	n, err := a.m.Stat(ctx, f)
	a.tr.finish(id, "stat", at)
	return n, err
}

func (a *appMount) Remove(ctx *rpc.Ctx, path string) error {
	if a.tr == nil {
		return a.m.Remove(ctx, path)
	}
	id, at := a.tr.start()
	err := a.m.Remove(ctx, path)
	a.tr.finish(id, "remove", at)
	return err
}

// ---- store wrapper ----

// Store methods, grouped the way the per-layer metrics report them.
const (
	mLookup = iota
	mLookupPath
	mGetAttr
	mCreate
	mMkdir
	mRemove
	mRename
	mReadDir
	mTruncate
	mSetSize
	mStats
	mReadAt
	mWriteAt
	mWriteSyntheticAt
	mSync
	nMethods
)

var methodNames = [nMethods]string{
	"Lookup", "LookupPath", "GetAttr", "Create", "Mkdir", "Remove", "Rename", "ReadDir",
	"Truncate", "SetSize", "Stats", "ReadAt", "WriteAt", "WriteSyntheticAt", "Sync",
}

// methodClass maps a method to read / write / sync / meta.
func methodClass(m int) string {
	switch m {
	case mReadAt:
		return "read"
	case mWriteAt, mWriteSyntheticAt:
		return "write"
	case mSync:
		return "sync"
	}
	return "meta"
}

// callStat is one (node, method) pair's totals.
type callStat struct {
	calls atomic.Int64
	ns    atomic.Int64
}

// storeStats times every call into every store of one cluster.  A store
// call runs on a server goroutine on the far side of a socket, so it cannot
// be given the application span that caused it as a parent from out here:
// calls are totalled per node and method instead.
type storeStats struct {
	mu     sync.Mutex
	nodes  map[string]*[nMethods]callStat
	active atomic.Bool
	// corrupt makes every ReadAt fail with store.ErrCorrupt (the
	// failure-accounting test).
	corrupt atomic.Bool
}

func newStoreStats() *storeStats {
	return &storeStats{nodes: make(map[string]*[nMethods]callStat)}
}

// reset zeroes the totals and starts counting; freeze stops.
func (s *storeStats) reset() {
	s.mu.Lock()
	for _, n := range s.nodes {
		for m := range n {
			n[m].calls.Store(0)
			n[m].ns.Store(0)
		}
	}
	s.mu.Unlock()
	s.active.Store(true)
}

func (s *storeStats) freeze() { s.active.Store(false) }

// wrap returns a factory whose stores report to s.
func (s *storeStats) wrap(inner cluster.StoreFactory) cluster.StoreFactory {
	return func(node string, disk *simdisk.Disk, reg *metrics.Registry) store.Store {
		st := inner(node, disk, reg)
		s.mu.Lock()
		stats := s.nodes[node]
		if stats == nil {
			stats = new([nMethods]callStat)
			s.nodes[node] = stats
		}
		s.mu.Unlock()
		t := &timedStore{inner: st, owner: s, stats: stats}
		if rec, ok := st.(store.Recoverable); ok {
			// pvfs.StorageServer type-asserts for Recoverable, so a wrapped
			// durable store must still be one — and a wrapped mem store
			// must still not be.
			return &timedRecoverable{timedStore: t, rec: rec}
		}
		return t
	}
}

// classBusy sums calls and busy time over nodes for one class.
func (s *storeStats) classBusy(class string) (calls int64, busy time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.nodes {
		for m := range n {
			if methodClass(m) == class {
				calls += n[m].calls.Load()
				busy += time.Duration(n[m].ns.Load())
			}
		}
	}
	return
}

// storeRow is one aggregated row of the trace file.
type storeRow struct {
	Node   string `json:"node"`
	Method string `json:"method"`
	Calls  int64  `json:"calls"`
	BusyNs int64  `json:"busy_ns"`
}

func (s *storeStats) rows() []storeRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []storeRow
	for name, n := range s.nodes {
		for m := range n {
			if c := n[m].calls.Load(); c > 0 {
				out = append(out, storeRow{name, methodNames[m], c, n[m].ns.Load()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Method < out[j].Method
	})
	return out
}

type timedStore struct {
	inner store.Store
	owner *storeStats
	stats *[nMethods]callStat
}

type timedRecoverable struct {
	*timedStore
	rec store.Recoverable
}

func (t *timedRecoverable) Crash()                { t.rec.Crash() }
func (t *timedRecoverable) Recover() (int, error) { return t.rec.Recover() }

// enter starts timing method m; the returned func stops it.
func (t *timedStore) enter(m int) func() {
	if !t.owner.active.Load() {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		t.stats[m].calls.Add(1)
		t.stats[m].ns.Add(int64(time.Since(t0)))
	}
}

func (t *timedStore) Root() store.FileID { return t.inner.Root() }

func (t *timedStore) Lookup(dir store.FileID, name string) (store.Attr, error) {
	defer t.enter(mLookup)()
	return t.inner.Lookup(dir, name)
}

func (t *timedStore) LookupPath(p string) (store.Attr, error) {
	defer t.enter(mLookupPath)()
	return t.inner.LookupPath(p)
}

func (t *timedStore) GetAttr(id store.FileID) (store.Attr, error) {
	defer t.enter(mGetAttr)()
	return t.inner.GetAttr(id)
}

func (t *timedStore) Create(dir store.FileID, name string) (store.Attr, error) {
	defer t.enter(mCreate)()
	return t.inner.Create(dir, name)
}

func (t *timedStore) Mkdir(dir store.FileID, name string) (store.Attr, error) {
	defer t.enter(mMkdir)()
	return t.inner.Mkdir(dir, name)
}

func (t *timedStore) Remove(dir store.FileID, name string) error {
	defer t.enter(mRemove)()
	return t.inner.Remove(dir, name)
}

func (t *timedStore) Rename(srcDir store.FileID, srcName string, dstDir store.FileID, dstName string) error {
	defer t.enter(mRename)()
	return t.inner.Rename(srcDir, srcName, dstDir, dstName)
}

func (t *timedStore) ReadDir(dir store.FileID) ([]string, error) {
	defer t.enter(mReadDir)()
	return t.inner.ReadDir(dir)
}

func (t *timedStore) Truncate(id store.FileID, size int64) error {
	defer t.enter(mTruncate)()
	return t.inner.Truncate(id, size)
}

func (t *timedStore) SetSize(id store.FileID, size int64) error {
	defer t.enter(mSetSize)()
	return t.inner.SetSize(id, size)
}

func (t *timedStore) Stats() int {
	defer t.enter(mStats)()
	return t.inner.Stats()
}

func (t *timedStore) ReadAt(id store.FileID, off int64, b []byte) (int, error) {
	if t.owner.corrupt.Load() {
		return 0, store.ErrCorrupt
	}
	defer t.enter(mReadAt)()
	return t.inner.ReadAt(id, off, b)
}

func (t *timedStore) WriteAt(id store.FileID, off int64, b []byte) (int64, error) {
	defer t.enter(mWriteAt)()
	return t.inner.WriteAt(id, off, b)
}

func (t *timedStore) WriteSyntheticAt(id store.FileID, off, n int64) (int64, error) {
	defer t.enter(mWriteSyntheticAt)()
	return t.inner.WriteSyntheticAt(id, off, n)
}

func (t *timedStore) Sync(p *sim.Proc) error {
	defer t.enter(mSync)()
	return t.inner.Sync(p)
}

// ---- registry deltas ----

// regDelta is the change of a metrics registry over a phase.
type regDelta struct {
	reg           *metrics.Registry
	before, after map[string][]metrics.SeriesSnapshot
}

func snapshotByName(reg *metrics.Registry) map[string][]metrics.SeriesSnapshot {
	out := make(map[string][]metrics.SeriesSnapshot)
	for _, f := range reg.Snapshot().Metrics {
		out[f.Name] = append(out[f.Name], f.Series...)
	}
	return out
}

func newRegDelta(reg *metrics.Registry) *regDelta {
	return &regDelta{reg: reg, before: snapshotByName(reg)}
}

func (d *regDelta) stop() { d.after = snapshotByName(d.reg) }

// match reports whether a series carries every label in want.
func match(s metrics.SeriesSnapshot, want map[string]string) bool {
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

func sameLabels(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// pair finds the before-state of an after-series (zero if it is new).
func (d *regDelta) pair(name string, s metrics.SeriesSnapshot) metrics.SeriesSnapshot {
	for _, b := range d.before[name] {
		if sameLabels(b.Labels, s.Labels) {
			return b
		}
	}
	return metrics.SeriesSnapshot{}
}

// counter sums a counter family's increase over the matching series.
func (d *regDelta) counter(name string, want map[string]string) float64 {
	var sum float64
	for _, s := range d.after[name] {
		if match(s, want) {
			sum += s.Value - d.pair(name, s).Value
		}
	}
	return sum
}

// hist merges a histogram family's increase over the matching series.
type histDelta struct {
	count   float64
	sum     float64
	bounds  []float64
	buckets []float64 // cumulative, aligned with bounds
}

func (d *regDelta) hist(name string, want map[string]string) histDelta {
	var h histDelta
	for _, s := range d.after[name] {
		if !match(s, want) {
			continue
		}
		b := d.pair(name, s)
		h.count += float64(s.Count - b.Count)
		h.sum += s.Sum - b.Sum
		if h.bounds == nil {
			h.bounds = make([]float64, len(s.Buckets))
			h.buckets = make([]float64, len(s.Buckets))
			for i, bk := range s.Buckets {
				h.bounds[i] = bk.LE
			}
		}
		for i, bk := range s.Buckets {
			prev := uint64(0)
			if i < len(b.Buckets) {
				prev = b.Buckets[i].Cumulative
			}
			h.buckets[i] += float64(bk.Cumulative - prev)
		}
	}
	return h
}

func (h histDelta) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile estimates the q-quantile by interpolating linearly inside the
// bucket that holds it.  The registry's duration buckets are a factor of
// three wide, so this is an estimate, not a measurement: use it to see a
// latency move between buckets, not to resolve 10 %.
func (h histDelta) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := q * h.count
	lo, prev := 0.0, 0.0
	for i, cum := range h.buckets {
		if cum >= target {
			in := cum - prev
			if in <= 0 {
				return h.bounds[i]
			}
			return lo + (h.bounds[i]-lo)*(target-prev)/in
		}
		lo, prev = h.bounds[i], cum
	}
	return lo // beyond the last finite bound
}

// ---- runtime counters ----

type memDelta struct {
	before, after runtime.MemStats
}

func (m *memDelta) start() { runtime.ReadMemStats(&m.before) }
func (m *memDelta) stop()  { runtime.ReadMemStats(&m.after) }

func (m *memDelta) mallocs() float64    { return float64(m.after.Mallocs - m.before.Mallocs) }
func (m *memDelta) allocBytes() float64 { return float64(m.after.TotalAlloc - m.before.TotalAlloc) }
func (m *memDelta) gcCycles() float64   { return float64(m.after.NumGC - m.before.NumGC) }
func (m *memDelta) gcPauseMs() float64 {
	return float64(m.after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
}

// ---- trace file ----

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Note     string       `json:"note"`
	Mounts   []traceMount `json:"mounts"`
	Store    []storeRow   `json:"store_calls"`
}

// traceMount is one mount's spans.
type traceMount struct {
	Mount      int     `json:"mount"`
	Spans      int     `json:"spans_total"`
	Kept       int     `json:"spans_kept"`
	PassMs     float64 `json:"pass_ms"`
	PassSelfMs float64 `json:"pass_self_ms"` // pass time not inside a Mount call
	Records    []span  `json:"spans"`
}

const traceNote = "Application spans: one per pass (a sequential sweep or a small-file transaction) and one child per cluster.Mount call inside it; " +
	"a pass's self time is its duration minus its children. Store calls run on server goroutines across a socket and cannot be parented " +
	"from outside the program, so they are totalled per node and method over the traced phase. Times are this sandbox's loopback, not a device's."

func writeTrace(path, workload string, seed int64, ph *tcpPhase) error {
	tf := traceFile{Workload: workload, Seed: seed, Note: traceNote}
	for _, r := range ph.recs {
		if b := r.spans; b != nil {
			tf.Mounts = append(tf.Mounts, traceMount{
				Mount: b.mount, Spans: b.total, Kept: len(b.spans),
				PassMs: float64(b.passNs) / 1e6, PassSelfMs: float64(b.passNs-b.childNs) / 1e6, Records: b.spans,
			})
		}
	}
	if ph.store != nil {
		tf.Store = ph.store.rows()
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
