package workload

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"dpnfs/internal/cluster"
	"dpnfs/internal/faults"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
)

// The phased experiments' schedules, as offsets into the measured run.  Each
// figure that runs them uses these values, so none is a setting.
const (
	// Degraded: the crash lands deep enough into the run for a clean
	// baseline, and the outage lasts long enough that every architecture's
	// recovery machinery (layout refetch, MDS-proxied fallback, striped-I/O
	// retry) engages before the restart heals it.
	crashAt      = 2 * time.Second
	restartAt    = 6 * time.Second
	recoveryTail = 3 * time.Second

	// Rebalance: the join lands after a clean baseline; the writers stop
	// joinTail after the migration ends, or at joinDeadline if it never does.
	joinAt       = 2 * time.Second
	joiner       = "io6" // the first node name free in every architecture
	joinTail     = 3 * time.Second
	joinDeadline = joinAt + joinTail + 120*time.Second

	// RotAt is when the integrity figure's bit rot lands (the figure builds
	// the rot plan).  The scheduled scrub pass starts a window later, so
	// foreground read-repair is measured on its own.
	RotAt             = 200 * time.Millisecond
	scrubAt           = 400 * time.Millisecond
	integrityDeadline = 600 * time.Millisecond

	writeBlock = 2 << 20   // per fsync'd write, degraded and rebalance
	readBlock  = 256 << 10 // per verified read, integrity
)

// Phases is a phased experiment's aggregate throughput in its three windows:
// up to the first boundary, between the two, and from the second to the end
// of the run.
type Phases struct {
	Before, During, After float64 // MB/s
}

// phaseRun is a measured run's completion log, shared by its clients.
type phaseRun struct {
	start time.Duration // the cluster clock when the run began
	mu    sync.Mutex
	done  []completion
}

type completion struct {
	at    time.Duration // offset into the run
	bytes int64
}

// since is the offset into the run at ctx's clock.
func (r *phaseRun) since(ctx *rpc.Ctx) time.Duration { return time.Duration(ctx.Now()) - r.start }

// record logs n bytes as completed now.
func (r *phaseRun) record(ctx *rpc.Ctx, n int64) {
	c := completion{at: r.since(ctx), bytes: n}
	r.mu.Lock()
	r.done = append(r.done, c)
	r.mu.Unlock()
}

// phased is one experiment of the shape the degraded, rebalance and
// integrity figures share: write a corpus, schedule a plan, stream I/O, and
// bucket completed bytes into three windows.
type phased struct {
	name    string // names the experiment in its errors
	setup   func(ctx *rpc.Ctx, m *cluster.Mount, i int) error
	plan    *faults.Plan // scheduled for the measured run alone
	measure func(ctx *rpc.Ctx, m *cluster.Mount, i int, r *phaseRun) error
	// bounds returns the two window boundaries as offsets into the measured
	// run, once it is over; start is the cluster clock when it began.
	bounds func(start time.Duration) (b1, b2 time.Duration, err error)
}

// fixedBounds is the bounds of a plan whose own event times are the window
// edges.
func fixedBounds(b1, b2 time.Duration) func(time.Duration) (time.Duration, time.Duration, error) {
	return func(time.Duration) (time.Duration, time.Duration, error) { return b1, b2, nil }
}

// run runs the experiment.  It requires the simulated transport: the windows
// are virtual-time intervals, which is also what makes the result exactly
// reproducible for a given seed and plan.  A completion at a boundary counts
// in the later window.
func (e phased) run(cl *cluster.Cluster) (Phases, error) {
	if cl.Cfg.Transport == cluster.TransportTCP {
		return Phases{}, fmt.Errorf("workload: the %s experiment requires the sim transport", e.name)
	}
	if _, err := cl.Run(e.setup); err != nil {
		return Phases{}, fmt.Errorf("%s setup: %w", e.name, err)
	}
	if err := cl.Schedule(e.plan); err != nil {
		return Phases{}, err
	}
	r := &phaseRun{start: cl.Now()}
	elapsed, err := cl.Run(func(ctx *rpc.Ctx, m *cluster.Mount, i int) error { return e.measure(ctx, m, i, r) })
	if err != nil {
		return Phases{}, fmt.Errorf("%s run: %w", e.name, err)
	}
	b1, b2, err := e.bounds(r.start)
	if err != nil {
		return Phases{}, err
	}
	var window [3]int64
	for _, c := range r.done {
		w := 0
		switch {
		case c.at >= b2:
			w = 2
		case c.at >= b1:
			w = 1
		}
		window[w] += c.bytes
	}
	return Phases{
		Before: Result{Bytes: window[0], Elapsed: b1}.ThroughputMBs(),
		During: Result{Bytes: window[1], Elapsed: b2 - b1}.ThroughputMBs(),
		After:  Result{Bytes: window[2], Elapsed: elapsed - b2}.ThroughputMBs(),
	}, nil
}

// syncWrites streams writeBlock-sized writes into f from offset 0, each
// followed by an fsync so a block only counts once its bytes are on stable
// storage, while more(offset into the run) holds; then it closes f.
func syncWrites(ctx *rpc.Ctx, m *cluster.Mount, f *cluster.File, r *phaseRun, more func(time.Duration) bool) error {
	for off := int64(0); more(r.since(ctx)); off += writeBlock {
		if err := m.Write(ctx, f, off, payload.Synthetic(writeBlock)); err != nil {
			return err
		}
		if err := m.Fsync(ctx, f); err != nil {
			return err
		}
		r.record(ctx, writeBlock)
	}
	return m.Close(ctx, f)
}

// Degraded is the degraded-mode experiment: every client streams fsync'd
// block writes while a storage node crashes at crashAt and restarts at
// restartAt, and keeps going for recoveryTail after the restart.  The
// windows are bounded by the crash and the restart.  The victim is the first
// storage node that does not double as the metadata manager ("io1" on every
// architecture).
func Degraded(cl *cluster.Cluster) (Phases, error) {
	victims := cl.FaultCandidates()
	if len(victims) == 0 {
		return Phases{}, fmt.Errorf("degraded: no storage node to crash")
	}
	return phased{
		name: "degraded",
		setup: func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			f, err := m.Create(ctx, fmt.Sprintf("/degraded.%d", i))
			if err != nil {
				return err
			}
			return m.Close(ctx, f)
		},
		plan: faults.NewPlan(1,
			faults.StorageNodeCrash{At: crashAt, Node: victims[0]},
			faults.StorageNodeRestart{At: restartAt, Node: victims[0]},
		),
		measure: func(ctx *rpc.Ctx, m *cluster.Mount, i int, r *phaseRun) error {
			f, err := m.Open(ctx, fmt.Sprintf("/degraded.%d", i))
			if err != nil {
				return err
			}
			return syncWrites(ctx, m, f, r, func(at time.Duration) bool { return at < restartAt+recoveryTail })
		},
		bounds: fixedBounds(crashAt, restartAt),
	}.run(cl)
}

// Rebalance is the elastic-membership experiment.  The setup writes each
// client a dataSize corpus on the original stripe, so the join has real data
// to move.  Then a brand-new storage node joins at joinAt, the cluster
// migrates every file onto the widened stripe in the background, and every
// client streams fsync'd block writes into a fresh file until the migration
// has been over for joinTail.  The windows are the migration window the
// cluster reports, not the scheduled join time, so During measures
// foreground service while the background copier is genuinely running.  A
// failed join or migration fails the measured run, and so the experiment.
func Rebalance(cl *cluster.Cluster, dataSize int64) (Phases, error) {
	return phased{
		name: "rebalance",
		setup: func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			f, err := m.Create(ctx, fmt.Sprintf("/rebalance.%d", i))
			if err != nil {
				return err
			}
			for off := int64(0); off < dataSize; off += writeBlock {
				if err := m.Write(ctx, f, off, payload.Synthetic(min(dataSize-off, writeBlock))); err != nil {
					return err
				}
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
			return m.Close(ctx, f)
		},
		plan: faults.NewPlan(1, faults.Join{At: joinAt, Node: joiner}),
		measure: func(ctx *rpc.Ctx, m *cluster.Mount, i int, r *phaseRun) error {
			f, err := m.Create(ctx, fmt.Sprintf("/fg.%d", i))
			if err != nil {
				return err
			}
			return syncWrites(ctx, m, f, r, func(at time.Duration) bool {
				_, end := cl.MigrationWindow()
				return at < joinDeadline && (end <= r.start || at < end-r.start+joinTail)
			})
		},
		bounds: func(start time.Duration) (time.Duration, time.Duration, error) {
			migStart, migEnd := cl.MigrationWindow()
			if migEnd <= start {
				return 0, 0, fmt.Errorf("rebalance: the migration never ran (deadline %v hit)", joinDeadline)
			}
			return migStart - start, migEnd - start, nil
		},
	}.run(cl)
}

// integrityPattern is client i's deterministic corpus, regenerated on the
// verify side so a corrupt byte can never masquerade as the expected one.
func integrityPattern(i int, n int64) []byte {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(j*131 + i*29 + 7)
	}
	return b
}

// Integrity is the integrity experiment.  Every client writes a fileSize
// pattern file; rot is then scheduled for the measured run, with a scrub
// pass at scrubAt.  In the run every client loops sequential block reads
// over its file — dropping caches at the top of each pass so every pass
// exercises the stores — and compares every byte against the regenerated
// pattern.  A single mismatched byte fails the run, and so does a failed
// scan in the scheduled pass: silent corruption cannot hide in the
// throughput numbers.  The windows are bounded by RotAt, which
// must match the rot plan's times, and scrubAt.
func Integrity(cl *cluster.Cluster, fileSize int64, rot *faults.Plan) (Phases, error) {
	return phased{
		name: "integrity",
		setup: func(ctx *rpc.Ctx, m *cluster.Mount, i int) error {
			f, err := m.Create(ctx, fmt.Sprintf("/integrity.%d", i))
			if err != nil {
				return err
			}
			if err := m.Write(ctx, f, 0, payload.Real(integrityPattern(i, fileSize))); err != nil {
				return err
			}
			if err := m.Fsync(ctx, f); err != nil {
				return err
			}
			return m.Close(ctx, f)
		},
		plan: faults.NewPlan(rot.Seed, append(slices.Clip(rot.Events), faults.Scrub{At: scrubAt})...),
		measure: func(ctx *rpc.Ctx, m *cluster.Mount, i int, r *phaseRun) error {
			want := integrityPattern(i, fileSize)
			for r.since(ctx) < integrityDeadline {
				// Open cold each pass: page caches shared with an open file
				// survive DropCaches, and a warm pass would never touch the
				// stores — or the rot.
				m.DropCaches()
				f, err := m.Open(ctx, fmt.Sprintf("/integrity.%d", i))
				if err != nil {
					return err
				}
				for off := int64(0); off < fileSize; off += readBlock {
					n := min(fileSize-off, readBlock)
					got, rn, err := m.Read(ctx, f, off, n)
					if err != nil {
						return fmt.Errorf("client %d read at %d: %w", i, off, err)
					}
					if rn != n {
						return fmt.Errorf("client %d read at %d: got %d bytes, want %d", i, off, rn, n)
					}
					if !bytes.Equal(got.Bytes, want[off:off+n]) {
						return fmt.Errorf("client %d: corrupt bytes delivered at offset %d", i, off)
					}
					r.record(ctx, n)
				}
				if err := m.Close(ctx, f); err != nil {
					return err
				}
			}
			return nil
		},
		bounds: fixedBounds(RotAt, scrubAt),
	}.run(cl)
}
