package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// The three TCP workloads share one harness: build the cluster dpnfs-serve
// -selftest builds (loopback sockets, real bytes, 3 back ends), set it up,
// run a closed loop per mount until the deadline, verify.

// sizes holds every workload constant.  benchSizes is what BENCHMARK.json
// measures; checkSizes is the tiny variant the smoke test runs.
type sizes struct {
	seqClients   int   // seq_*: mounts
	fileBytes    int64 // seq_*: bytes per mount's file
	block        int64 // seq_*: one Read/Write call (= RSize = WSize)
	warmPasses   int   // seq_*: untimed passes per mount before the clock starts
	smallClients int   // smallfile_wal: mounts
	dirs         int   // smallfile_wal: directories per mount
	minFile      int64 // smallfile_wal: smallest file
	maxFile      int64 // smallfile_wal: largest file
	warmTx       int   // smallfile_wal: untimed transactions per mount
	retained     int   // smallfile_wal: fsynced files per mount kept for the post-crash read-back
	rounds       int   // fresh clusters a run's time is split over; setup_s is the first quartile of their set-ups

	simClients  int           // sim_figures: clients per architecture
	simFile     int64         // sim_figures: bytes per client per IOR run
	simSmall    int64         // sim_figures: small IOR block
	simLarge    int64         // sim_figures: large IOR block
	simWarmFile int64         // sim_figures: bytes per client in a set-up pass
	simSetups   int           // sim_figures: set-up passes; setup_s is their first quartile
	simLogical  int           // sim_figures: open-loop logical clients
	simWindow   time.Duration // sim_figures: open-loop arrival window, virtual time
	probeBudget time.Duration // wall time one probe takes
}

var benchSizes = sizes{
	seqClients: 2, fileBytes: 32 << 20, block: 2 << 20, warmPasses: 3,
	smallClients: 8, dirs: 8, minFile: 4 << 10, maxFile: 64 << 10, warmTx: 16, retained: 8,
	rounds:     5,
	simClients: 8, simFile: 8 << 20, simWarmFile: 1 << 20, simSetups: 5, simSmall: 8 << 10, simLarge: 2 << 20, simLogical: 1000, simWindow: time.Second,
	probeBudget: 60 * time.Millisecond,
}

var checkSizes = sizes{
	seqClients: 2, fileBytes: 4 << 20, block: 2 << 20, warmPasses: 1,
	smallClients: 3, dirs: 2, minFile: 4 << 10, maxFile: 16 << 10, warmTx: 2, retained: 4,
	rounds:     1,
	simClients: 2, simFile: 1 << 20, simWarmFile: 1 << 20, simSetups: 1, simSmall: 64 << 10, simLarge: 1 << 20, simLogical: 16, simWindow: 100 * time.Millisecond,
	probeBudget: 2 * time.Millisecond,
}

// tcpBackends is the number of back-end nodes of every TCP cluster.
const tcpBackends = 3

// runCfg is one invocation's parameters.
type runCfg struct {
	seed      int64
	dur       time.Duration // length of the timed phase
	trace     bool
	traceFile string // where a traced TCP run writes its spans
	sz        sizes

	// Failure-accounting hooks, set only by tests: the wrapped stores fail
	// every read of the timed phase with store.ErrCorrupt (one failure would
	// be healed by the client's fallback ladder), or every read is checked
	// against a pattern the files were never written with.
	corruptReads bool
	wrongPattern bool
}

// fillPattern writes a seeded xorshift64* stream into b, whose length is a
// multiple of 8 (every buffer of this package is a power of two).
func fillPattern(b []byte, seed int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567
	if x == 0 {
		x = 1
	}
	for i := 0; i+8 <= len(b); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(b[i:], x*0x2545F4914F6CDD1D)
	}
}

// mountRec collects one mount's measurements.  Each mount's goroutine owns
// its mountRec, so nothing here is locked.
type mountRec struct {
	t0        time.Time // start of the phase
	ops       []opRec   // every completed op
	attempted int64
	failed    int64
	firstErr  error
	spans     *spanBuf // nil unless tracing
}

// done records an op that began at op0 and moved n payload bytes.
func (r *mountRec) done(op0 time.Time, n int64) {
	now := time.Now()
	r.ops = append(r.ops, opRec{end: now.Sub(r.t0), ms: float64(now.Sub(op0)) / 1e6, bytes: n})
}

func (r *mountRec) fail(n int64, err error) {
	r.failed += n
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// tcpWorkload is what differs between the three TCP workloads.
type tcpWorkload interface {
	backend() string
	// clients is the number of mounts, each driven by one goroutine.
	clients() int
	// setup populates the cluster and runs the warm-up.
	setup(cl *cluster.Cluster) error
	// loop runs mount i's closed loop until the deadline.
	loop(ctx *rpc.Ctx, a *appMount, i int, deadline time.Time, rec *mountRec)
	// verify checks the cluster's final state after the timed phase.
	verify(cl *cluster.Cluster) error
}

// tcpPhase is the outcome of one timed phase.
type tcpPhase struct {
	recs   []*mountRec
	wall   time.Duration
	cpu    time.Duration
	slices []slice
	setupS []float64
	verify error
	mem    memDelta
	reg    *regDelta   // nil unless tracing
	store  *storeStats // nil unless tracing
}

// clusterCfg is the part of cluster.Config the benchmark varies.
type clusterCfg struct {
	clients       int
	wireChecksums bool
}

func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// buildTCP builds a cluster the way dpnfs-serve -selftest does.  When st is
// non-nil every store is wrapped so its calls are timed.
func buildTCP(w tcpWorkload, cc clusterCfg, st *storeStats) *cluster.Cluster {
	base, err := cluster.BackendFactory(w.backend())
	if err != nil {
		panic(err) // the backends are constants of this file
	}
	cfg := cluster.Config{
		Arch:          cluster.ArchDirectPNFS,
		Clients:       cc.clients,
		Backends:      tcpBackends,
		Real:          true,
		Transport:     cluster.TransportTCP,
		Backend:       w.backend(),
		WireChecksums: cc.wireChecksums,
	}
	if st != nil {
		cfg.MetadataBackend = st.wrap(base)
		cfg.ContentBackend = st.wrap(base)
	}
	return cluster.New(cfg)
}

// runTCPPhase measures the workload for cfg.dur, split evenly over
// cfg.sz.rounds freshly built clusters: build, set up, run the closed loops
// until the round's deadline, verify, close.  Each round is an independent
// sample of the system (and of its set-up time), so a run does not hinge on
// how one cluster's connections and goroutines happened to land; and a
// round is short enough that smallfile_wal stays on the near side of the
// throughput cliff its journal volume runs into after some 500 MB (README).
func runTCPPhase(w tcpWorkload, cfg runCfg, cc clusterCfg, traced bool) (*tcpPhase, error) {
	ph := &tcpPhase{}
	if traced {
		ph.store = newStoreStats()
	}
	per := cfg.dur / time.Duration(cfg.sz.rounds)
	every := sliceDur
	if per < every {
		every = per
	}
	for k := 0; k < cfg.sz.rounds; k++ {
		t0 := time.Now()
		cl := buildTCP(w, cc, ph.store)
		if err := w.setup(cl); err != nil {
			cl.Close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())

		recs := make([]*mountRec, cc.clients)
		for i := range recs {
			recs[i] = &mountRec{}
			if traced {
				recs[i].spans = &spanBuf{mount: i}
			}
		}
		if traced {
			ph.store.reset()
			if cfg.corruptReads {
				ph.store.corrupt.Store(true)
			}
			ph.reg = newRegDelta(cl.Metrics())
			ph.mem.start()
		}
		t0 = time.Now()
		deadline := t0.Add(per)
		stop, sampled := make(chan struct{}), make(chan []cpuSample, 1)
		go sampleCPU(t0, every, stop, sampled)
		_, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			recs[i].t0 = t0
			w.loop(ctx, &appMount{m: m, tr: recs[i].spans}, i, deadline, recs[i])
			return nil
		})
		close(stop)
		samples := <-sampled
		if traced {
			ph.mem.stop()
			ph.reg.stop()
			ph.store.freeze()
		}
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("timed phase: %w", err)
		}
		ph.wall += samples[len(samples)-1].at
		ph.cpu += samples[len(samples)-1].cpu - samples[0].cpu
		var ops []opRec
		for _, r := range recs {
			ops = append(ops, r.ops...)
		}
		ph.slices = append(ph.slices, cutSlices(samples, every, ops)...)
		ph.recs = append(ph.recs, recs...)
		if err := w.verify(cl); err != nil && ph.verify == nil {
			ph.verify = err
		}
		cl.Close()
	}
	return ph, nil
}

// latencies returns every completed op's latency in ms.
func (ph *tcpPhase) latencies() []float64 {
	var ms []float64
	for _, r := range ph.recs {
		for _, op := range r.ops {
			ms = append(ms, op.ms)
		}
	}
	return ms
}

// totals sums the mounts.  ops counts completed ops, userBytes their
// payload.
func (ph *tcpPhase) totals() (attempted, failed, ops, userBytes int64, firstErr error) {
	for _, r := range ph.recs {
		attempted += r.attempted
		failed += r.failed
		ops += int64(len(r.ops))
		for _, op := range r.ops {
			userBytes += op.bytes
		}
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	return
}

// ---- seq_read / seq_write ----

type seqWorkload struct {
	cfg   runCfg
	write bool
	mu    sync.Mutex
	pat   [][]byte // per mount: the file's content
	// warmReadUs is the median latency of a 2 MB read served from the
	// client's page cache, measured by verify.
	warmReadUs float64
}

func (w *seqWorkload) backend() string { return cluster.BackendMem }
func (w *seqWorkload) clients() int    { return w.cfg.sz.seqClients }

func seqPath(i int) string { return fmt.Sprintf("/seq.%d", i) }

// pattern returns mount i's file content, generating it on first use.  In
// seq_write every pass writes the same bytes, so the final read-back has
// one expected image however many passes ran.
func (w *seqWorkload) pattern(i int) []byte {
	cfg := w.cfg
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.pat) <= i {
		b := make([]byte, cfg.sz.fileBytes)
		fillPattern(b, cfg.seed*1000003+int64(len(w.pat)))
		w.pat = append(w.pat, b)
	}
	return w.pat[i]
}

// expect is what reads are compared with: the pattern, or under the
// wrongPattern test hook something the file never held.
func (w *seqWorkload) expect(i int) []byte {
	if w.cfg.wrongPattern {
		return make([]byte, w.cfg.sz.fileBytes)
	}
	return w.pattern(i)
}

func (w *seqWorkload) setup(cl *cluster.Cluster) error {
	cfg := w.cfg
	_, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		pat := w.pattern(i)
		f, err := m.Create(ctx, seqPath(i))
		if err != nil {
			return err
		}
		for off := int64(0); off < cfg.sz.fileBytes; off += cfg.sz.block {
			if err := m.Write(ctx, f, off, payload.Real(pat[off:off+cfg.sz.block])); err != nil {
				return err
			}
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		if err := m.Close(ctx, f); err != nil {
			return err
		}
		// Warm-up: pools, connections and the scheduler reach steady state.
		warm := &mountRec{}
		a := &appMount{m: m}
		for p := 0; p < cfg.sz.warmPasses; p++ {
			w.pass(ctx, a, i, pat, warm)
		}
		return warm.firstErr
	})
	return err
}

// pass is one sequential sweep of mount i's file; reads are compared with
// want.
func (w *seqWorkload) pass(ctx *rpc.Ctx, a *appMount, i int, want []byte, rec *mountRec) {
	cfg := w.cfg
	blocks := cfg.sz.fileBytes / cfg.sz.block
	span := a.begin()
	defer a.end(span)
	if !w.write {
		a.m.DropCaches()
	}
	f, err := a.Open(ctx, seqPath(i))
	if err != nil {
		rec.attempted += blocks
		rec.fail(blocks, fmt.Errorf("open: %w", err))
		return
	}
	pat := w.pattern(i)
	failed, completed := rec.failed, len(rec.ops)
	// failRest is for an error that voids the whole pass: data that was
	// never flushed makes every write of the pass a failure.
	failRest := func(err error) {
		rec.ops = rec.ops[:completed]
		rec.fail(blocks-(rec.failed-failed), err)
	}
	for off := int64(0); off < cfg.sz.fileBytes; off += cfg.sz.block {
		rec.attempted++
		op0 := time.Now()
		if w.write {
			err = a.Write(ctx, f, off, payload.Real(pat[off:off+cfg.sz.block]))
		} else {
			var pl payload.Payload
			var n int64
			pl, n, err = a.Read(ctx, f, off, cfg.sz.block)
			if err == nil {
				switch {
				case n != cfg.sz.block:
					err = fmt.Errorf("short read at %d: %d of %d", off, n, cfg.sz.block)
				case !bytes.Equal(pl.Bytes, want[off:off+cfg.sz.block]):
					err = fmt.Errorf("read at %d returned wrong bytes", off)
				}
				pl.Release()
			}
		}
		if err != nil {
			rec.fail(1, err)
			continue
		}
		rec.done(op0, cfg.sz.block)
	}
	if w.write {
		if err := a.Fsync(ctx, f); err != nil {
			failRest(fmt.Errorf("fsync: %w", err))
		}
	}
	if err := a.Close(ctx, f); err != nil {
		failRest(fmt.Errorf("close: %w", err))
	}
}

func (w *seqWorkload) loop(ctx *rpc.Ctx, a *appMount, i int, deadline time.Time, rec *mountRec) {
	want := w.expect(i)
	for time.Now().Before(deadline) && rec.failed < maxFailures {
		w.pass(ctx, a, i, want, rec)
	}
}

// maxFailures stops a loop that can only fail: the run is already lost and
// is reported as such.
const maxFailures = 1000

func (w *seqWorkload) verify(cl *cluster.Cluster) error {
	cfg := w.cfg
	// Byte-exact read-back of every file with cold client caches.  For
	// seq_read this repeats what every pass checked; for seq_write it is
	// the only proof the written bytes landed.
	_, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		want := w.expect(i)
		m.DropCaches()
		f, err := m.Open(ctx, seqPath(i))
		if err != nil {
			return err
		}
		for off := int64(0); off < cfg.sz.fileBytes; off += cfg.sz.block {
			pl, n, err := m.Read(ctx, f, off, cfg.sz.block)
			if err != nil {
				return err
			}
			ok := n == cfg.sz.block && bytes.Equal(pl.Bytes, want[off:off+cfg.sz.block])
			pl.Release()
			if !ok {
				return fmt.Errorf("mount %d: read-back at %d differs from what was written", i, off)
			}
		}
		if i == 0 {
			// The file now sits in the client's page cache: the same sweep
			// again is the cache-fits case.
			var us []float64
			for off := int64(0); off < cfg.sz.fileBytes; off += cfg.sz.block {
				t0 := time.Now()
				pl, _, err := m.Read(ctx, f, off, cfg.sz.block)
				if err != nil {
					return err
				}
				us = append(us, float64(time.Since(t0))/1e3)
				pl.Release()
			}
			w.warmReadUs = median(us)
		}
		return m.Close(ctx, f)
	})
	return err
}

// ---- smallfile_wal ----

type smallWorkload struct {
	cfg runCfg
	mu  sync.Mutex
	pat [][]byte // per mount: source of file contents
	// kept lists, per mount, the fsynced files left in place for the
	// post-crash read-back, with where in pat their bytes came from.
	kept [][]keptFile
}

type keptFile struct {
	path      string
	off, size int64
}

func (w *smallWorkload) backend() string { return cluster.BackendWAL }
func (w *smallWorkload) clients() int    { return w.cfg.sz.smallClients }

func (w *smallWorkload) pattern(i int) []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.pat) <= i {
		b := make([]byte, 4<<20)
		fillPattern(b, w.cfg.seed*1000003+77+int64(len(w.pat)))
		w.pat = append(w.pat, b)
	}
	return w.pat[i]
}

func smallDir(i, d int) string { return fmt.Sprintf("/m%d.d%d", i, d) }

func (w *smallWorkload) setup(cl *cluster.Cluster) error {
	cfg := w.cfg
	w.kept = make([][]keptFile, len(cl.Mounts()))
	_, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		for d := 0; d < cfg.sz.dirs; d++ {
			if err := m.Mkdir(ctx, smallDir(i, d)); err != nil {
				return err
			}
		}
		warm := &mountRec{}
		a := &appMount{m: m}
		rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(i) + 1<<32))
		for t := 0; t < cfg.sz.warmTx; t++ {
			w.tx(ctx, a, i, -1-t, rng, warm)
		}
		return warm.firstErr
	})
	return err
}

// tx is one transaction: create, write, fsync, close; drop caches; open,
// read back, stat, close; remove.  The first cfg.sz.retained transactions
// of a mount skip the remove, so a known set of fsynced files outlives the
// phase.  Warm-up transactions carry a negative serial and are never kept.
func (w *smallWorkload) tx(ctx *rpc.Ctx, a *appMount, i, serial int, rng *rand.Rand, rec *mountRec) {
	cfg := w.cfg
	pat := w.pattern(i)
	size := cfg.sz.minFile + rng.Int63n(cfg.sz.maxFile-cfg.sz.minFile+1)
	off := rng.Int63n(int64(len(pat)) - size)
	dir := rng.Intn(cfg.sz.dirs)
	path := fmt.Sprintf("%s/f%d", smallDir(i, dir), serial)
	data := pat[off : off+size]
	want := data
	if cfg.wrongPattern {
		want = make([]byte, size)
	}

	rec.attempted++
	t0 := time.Now()
	span := a.begin()
	defer a.end(span)
	err := func() error {
		f, err := a.Create(ctx, path)
		if err != nil {
			return fmt.Errorf("create: %w", err)
		}
		if err := a.Write(ctx, f, 0, payload.Real(data)); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		if err := a.Fsync(ctx, f); err != nil {
			return fmt.Errorf("fsync: %w", err)
		}
		if err := a.Close(ctx, f); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		a.m.DropCaches()
		f, err = a.Open(ctx, path)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		pl, n, err := a.Read(ctx, f, 0, size)
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
		ok := n == size && bytes.Equal(pl.Bytes, want)
		pl.Release()
		if !ok {
			return fmt.Errorf("read of %s returned wrong bytes", path)
		}
		if sz, err := a.Stat(ctx, f); err != nil {
			return fmt.Errorf("stat: %w", err)
		} else if sz != size {
			return fmt.Errorf("stat of %s: size %d, wrote %d", path, sz, size)
		}
		if err := a.Close(ctx, f); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		if serial >= 0 && serial < cfg.sz.retained {
			w.kept[i] = append(w.kept[i], keptFile{path: path, off: off, size: size})
			return nil
		}
		if err := a.Remove(ctx, path); err != nil {
			return fmt.Errorf("remove: %w", err)
		}
		return nil
	}()
	if err != nil {
		rec.fail(1, err)
		return
	}
	rec.done(t0, 2*size) // written once, read once
}

func (w *smallWorkload) loop(ctx *rpc.Ctx, a *appMount, i int, deadline time.Time, rec *mountRec) {
	rng := rand.New(rand.NewSource(w.cfg.seed*7919 + int64(i)))
	for serial := 0; time.Now().Before(deadline) && rec.failed < maxFailures; serial++ {
		w.tx(ctx, a, i, serial, rng, rec)
	}
}

// verify is the durability check: every storage node loses its volatile
// state and replays its journal, then the retained files — all fsynced
// before the crash — must read back byte-exact.
func (w *smallWorkload) verify(cl *cluster.Cluster) error {
	for n := 0; n < tcpBackends; n++ {
		cl.CrashVolatile(fmt.Sprintf("io%d", n))
	}
	for n := 0; n < tcpBackends; n++ {
		cl.RestartVolatile(fmt.Sprintf("io%d", n))
	}
	_, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
		if len(w.kept[i]) == 0 {
			return fmt.Errorf("mount %d retained no files: the durability check would be vacuous", i)
		}
		pat := w.pattern(i)
		m.DropCaches()
		for _, k := range w.kept[i] {
			f, err := m.Open(ctx, k.path)
			if err != nil {
				return fmt.Errorf("after crash: open %s: %w", k.path, err)
			}
			pl, n, err := m.Read(ctx, f, 0, k.size)
			if err != nil {
				return fmt.Errorf("after crash: read %s: %w", k.path, err)
			}
			ok := n == k.size && bytes.Equal(pl.Bytes, pat[k.off:k.off+k.size])
			pl.Release()
			if !ok {
				return fmt.Errorf("after crash: %s lost fsynced bytes", k.path)
			}
			if err := m.Close(ctx, f); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}
