// Package faults is the deterministic event engine: a Plan is a
// seed-driven schedule of events — storage-node crashes and restarts, link
// degradation, slow disks, silent corruption, and the operator's joins,
// drains and scrub passes — that a cluster replays against itself during
// its next workload run.  The same plan drives every architecture, which is
// what turns the simulator into a testbed for the paper's *unhappy* paths —
// layout refetch and MDS-proxied fallback under storage-node loss
// (paper §3–§4, §6) — and for how they compose with membership changes and
// scrubbing.
//
// Determinism: a plan's schedule is fixed by its Events (and, for
// RandomPlan, by its seed alone).  Under the simulation kernel events fire
// at exact virtual times, so two runs of the same (workload seed, fault
// plan) pair are byte-identical — the property the bench determinism
// regression test pins.
//
// The engine itself is transport- and protocol-agnostic: every event
// applies itself to an abstract Target (implemented by cluster.Cluster),
// on the flow that replays it.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dpnfs/internal/rpc"
)

// Target is the surface plan events act on.  cluster.Cluster implements it
// for both transports: node faults apply on either, while links and disks
// are properties of the simulated models (no-ops over TCP).  Join, Drain
// and Scrub block the flow that replays them for as long as the rebalance
// or the pass takes; a Target keeps their failures itself (the cluster
// returns them from the run that replayed them).
type Target interface {
	// SetNodeDown marks every RPC service on node unreachable (down=true)
	// or reachable again (down=false).  Calls to a down node surface as
	// retryable errors at the rpc layer.
	SetNodeDown(node string, down bool)
	// SetLink degrades the node's network interface: loss is the
	// probability that a message pays a retransmission timeout, extraRTT is
	// added round-trip delay (half per direction).  (0, 0) restores the
	// link.
	SetLink(node string, loss float64, extraRTT time.Duration)
	// SetDiskSlow scales the node's disk service time by factor (>= 1).
	// Factor 1 restores full speed.
	SetDiskSlow(node string, factor float64)
	// CrashVolatile discards the node's volatile state — its in-memory
	// store image — at crash time, and RestartVolatile replays
	// its durable state before the node rejoins: with a durable backend
	// (internal/store/wal, docs/BACKENDS.md) a crash is a real reboot that
	// loses everything not yet synced.  Purely volatile stores keep their
	// image, the original reboot-with-image-intact semantics.
	CrashVolatile(node string)
	RestartVolatile(node string)
	// CorruptData flips one stored byte on node's store, chosen
	// deterministically from seed, without updating its block checksum —
	// bit rot on the media.
	CorruptData(node string, seed int64)
	// MisdirectRead arms a one-shot wrong-block read on node's store: the
	// next read of the victim block is served the bytes of a different
	// block, modelling a firmware- or driver-level misdirected I/O.
	MisdirectRead(node string, seed int64)
	// ArmTornWrite makes node's next crash persist only a prefix of the
	// final acknowledged journal record, so recovery sees a torn write.
	ArmTornWrite(node string)
	// Join brings a brand-new storage node into the cluster and rebalances
	// existing files onto the widened stripe.
	Join(ctx *rpc.Ctx, node string)
	// Drain migrates every byte off an active storage node and retires it.
	Drain(ctx *rpc.Ctx, node string)
	// Scrub runs one full-cluster scrub pass.
	Scrub(ctx *rpc.Ctx)
}

// Event is one scheduled action.  Concrete events are the exported structs
// below; At is relative to the start of the run the plan is scheduled for.
type Event interface {
	// When returns the event's offset from the start of the run.
	When() time.Duration
	// Kind returns a short label for metrics and traces.
	Kind() string
	// Target returns the node the event manipulates ("" for the whole
	// cluster).
	Target() string
	// Apply performs the event on the flow that replays it.
	Apply(ctx *rpc.Ctx, tg Target)
}

// StorageNodeCrash takes every service on Node offline at At.
type StorageNodeCrash struct {
	At   time.Duration
	Node string
}

func (e StorageNodeCrash) When() time.Duration { return e.At }
func (e StorageNodeCrash) Kind() string        { return "crash" }
func (e StorageNodeCrash) Target() string      { return e.Node }
func (e StorageNodeCrash) Apply(_ *rpc.Ctx, tg Target) {
	tg.SetNodeDown(e.Node, true)
	tg.CrashVolatile(e.Node)
}

// StorageNodeRestart brings a crashed node back at At.  Disk media survives
// the crash (the model is a node reboot, not media loss); whether the
// node's *store* survives depends on the backend: a durable store replays
// its log here, while a purely volatile one comes back with the image
// intact.
type StorageNodeRestart struct {
	At   time.Duration
	Node string
}

func (e StorageNodeRestart) When() time.Duration { return e.At }
func (e StorageNodeRestart) Kind() string        { return "restart" }
func (e StorageNodeRestart) Target() string      { return e.Node }
func (e StorageNodeRestart) Apply(_ *rpc.Ctx, tg Target) {
	tg.RestartVolatile(e.Node)
	tg.SetNodeDown(e.Node, false)
}

// LinkDegrade makes the node's link lossy/slow at At: each message pays a
// retransmission timeout with probability Loss, and every round trip
// through the node pays ExtraRTT of added delay (half per direction).
// Pair with LinkRestore to heal.
type LinkDegrade struct {
	At       time.Duration
	Node     string
	Loss     float64
	ExtraRTT time.Duration
}

func (e LinkDegrade) When() time.Duration { return e.At }
func (e LinkDegrade) Kind() string        { return "link-degrade" }
func (e LinkDegrade) Target() string      { return e.Node }
func (e LinkDegrade) Apply(_ *rpc.Ctx, tg Target) {
	tg.SetLink(e.Node, e.Loss, e.ExtraRTT)
}

// LinkRestore heals a degraded link at At.
type LinkRestore struct {
	At   time.Duration
	Node string
}

func (e LinkRestore) When() time.Duration         { return e.At }
func (e LinkRestore) Kind() string                { return "link-restore" }
func (e LinkRestore) Target() string              { return e.Node }
func (e LinkRestore) Apply(_ *rpc.Ctx, tg Target) { tg.SetLink(e.Node, 0, 0) }

// SlowDisk multiplies the node's disk service time by Factor at At.
// Factor 1 restores full speed.
type SlowDisk struct {
	At     time.Duration
	Node   string
	Factor float64
}

func (e SlowDisk) When() time.Duration         { return e.At }
func (e SlowDisk) Kind() string                { return "slow-disk" }
func (e SlowDisk) Target() string              { return e.Node }
func (e SlowDisk) Apply(_ *rpc.Ctx, tg Target) { tg.SetDiskSlow(e.Node, e.Factor) }

// BitRot silently flips one stored byte on Node at At, leaving the block's
// checksum stale.  Which byte is a pure function of (the store's contents,
// Seed).  The corruption is *silent*: nothing fails until a read or scrub
// touches the block and its checksum disagrees.
type BitRot struct {
	At   time.Duration
	Node string
	Seed int64
}

func (e BitRot) When() time.Duration         { return e.At }
func (e BitRot) Kind() string                { return "bit-rot" }
func (e BitRot) Target() string              { return e.Node }
func (e BitRot) Apply(_ *rpc.Ctx, tg Target) { tg.CorruptData(e.Node, e.Seed) }

// MisdirectedRead arms a one-shot wrong-block read on Node at At: the next
// read of a victim block (chosen deterministically from Seed) is served
// another block's bytes.  Location-salted checksums catch it — the stray
// block carries a valid sum for the wrong address.
type MisdirectedRead struct {
	At   time.Duration
	Node string
	Seed int64
}

func (e MisdirectedRead) When() time.Duration         { return e.At }
func (e MisdirectedRead) Kind() string                { return "misdirected-read" }
func (e MisdirectedRead) Target() string              { return e.Node }
func (e MisdirectedRead) Apply(_ *rpc.Ctx, tg Target) { tg.MisdirectRead(e.Node, e.Seed) }

// TornWrite arms Node so that its next crash persists only a prefix of the
// final acknowledged journal record.  Meaningful only when paired with a
// later StorageNodeCrash on the same node and a journaling backend; the
// record checksum catches the tear at recovery, which drops the record and
// counts it (store_wal_torn_writes_total).
type TornWrite struct {
	At   time.Duration
	Node string
}

func (e TornWrite) When() time.Duration         { return e.At }
func (e TornWrite) Kind() string                { return "torn-write" }
func (e TornWrite) Target() string              { return e.Node }
func (e TornWrite) Apply(_ *rpc.Ctx, tg Target) { tg.ArmTornWrite(e.Node) }

// Join adds a brand-new storage node named Node at At.  It gets a
// never-before-seen device ID, and existing files are rebalanced onto the
// widened stripe before the event's flow moves on.
type Join struct {
	At   time.Duration
	Node string
}

func (e Join) When() time.Duration           { return e.At }
func (e Join) Kind() string                  { return "join" }
func (e Join) Target() string                { return e.Node }
func (e Join) Apply(ctx *rpc.Ctx, tg Target) { tg.Join(ctx, e.Node) }

// Drain retires the active storage node Node at At: it stops receiving new
// placements, its data migrates to the remaining members, and it leaves
// membership with its device ID.
type Drain struct {
	At   time.Duration
	Node string
}

func (e Drain) When() time.Duration           { return e.At }
func (e Drain) Kind() string                  { return "drain" }
func (e Drain) Target() string                { return e.Node }
func (e Drain) Apply(ctx *rpc.Ctx, tg Target) { tg.Drain(ctx, e.Node) }

// Scrub runs one full-cluster scrub pass at At: every node's scrubber
// verifies its whole store, repairing from replicas where it can.
type Scrub struct {
	At time.Duration
}

func (e Scrub) When() time.Duration           { return e.At }
func (e Scrub) Kind() string                  { return "scrub" }
func (e Scrub) Target() string                { return "" }
func (e Scrub) Apply(ctx *rpc.Ctx, tg Target) { tg.Scrub(ctx) }

// Plan is a schedule of events.  A plan handed to cluster.Cluster.Schedule
// replays once, relative to the start of the next workload run; pair every
// crash with a restart (and every degrade with a restore) so the cluster
// heals before the runs after it.
type Plan struct {
	// Seed records the derivation seed for reproducibility reporting; it is
	// informational for hand-built plans and authoritative for RandomPlan.
	Seed   int64
	Events []Event
}

// NewPlan builds a plan from explicit events.
func NewPlan(seed int64, events ...Event) *Plan {
	return &Plan{Seed: seed, Events: events}
}

// Sorted returns the events in firing order (stable for equal times, so
// plans replay identically).
func (p *Plan) Sorted() []Event {
	out := make([]Event, len(p.Events))
	copy(out, p.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].When() < out[j].When() })
	return out
}

// Horizon returns the offset of the last event.
func (p *Plan) Horizon() time.Duration {
	var h time.Duration
	for _, e := range p.Events {
		if e.When() > h {
			h = e.When()
		}
	}
	return h
}

// String renders the schedule for logs and failure messages.
func (p *Plan) String() string {
	s := fmt.Sprintf("faults.Plan{seed=%d", p.Seed)
	for _, e := range p.Sorted() {
		s += fmt.Sprintf(" %s@%v:%s", e.Kind(), e.When(), e.Target())
	}
	return s + "}"
}

// RandomPlan derives a reproducible plan from seed alone: one crash/restart
// pair on one of nodes, plus (half the time each) a degraded link and a
// slow disk, all within horizon.  The crash lands in the first fifth of the
// horizon and heals before 0.8·horizon, so a workload paced across the
// horizon always overlaps the outage.
func RandomPlan(seed int64, nodes []string, horizon time.Duration) *Plan {
	if len(nodes) == 0 {
		panic("faults: RandomPlan needs at least one node")
	}
	if horizon <= 0 {
		horizon = time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	h := float64(horizon)
	at := func(lo, hi float64) time.Duration { return time.Duration(h * (lo + rng.Float64()*(hi-lo))) }

	victim := nodes[rng.Intn(len(nodes))]
	crash := at(0.02, 0.2)
	restart := crash + at(0.2, 0.5)
	p := NewPlan(seed,
		StorageNodeCrash{At: crash, Node: victim},
		StorageNodeRestart{At: restart, Node: victim},
	)
	if rng.Float64() < 0.5 {
		n := nodes[rng.Intn(len(nodes))]
		p.Events = append(p.Events,
			LinkDegrade{At: at(0, 0.3), Node: n, Loss: 0.05 + rng.Float64()*0.15, ExtraRTT: time.Duration(200e3 + rng.Float64()*1.8e6)},
			LinkRestore{At: at(0.6, 0.85), Node: n},
		)
	}
	if rng.Float64() < 0.5 {
		n := nodes[rng.Intn(len(nodes))]
		p.Events = append(p.Events,
			SlowDisk{At: at(0, 0.3), Node: n, Factor: 2 + rng.Float64()*6},
			SlowDisk{At: at(0.6, 0.85), Node: n, Factor: 1},
		)
	}
	return p
}

// TB is the slice of testing.TB the Chaos harness needs (kept as a local
// interface so non-test binaries that link this package do not pull in the
// testing machinery).
type TB interface {
	Helper()
	Logf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Chaos drives a chaos-style test: rounds reproducible random plans derived
// from seed, each handed to fn, which runs a workload under the plan and
// verifies end-to-end integrity (returning an error on corruption or
// failure).  The failure message names the round's derived seed so any
// round can be replayed in isolation via RandomPlan.
func Chaos(t TB, seed int64, rounds int, nodes []string, horizon time.Duration, fn func(round int, plan *Plan) error) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		// splitmix-style derivation keeps round seeds decorrelated while
		// remaining a pure function of (seed, round).
		rs := int64(uint64(seed) + uint64(round+1)*0x9e3779b97f4a7c15)
		plan := RandomPlan(rs, nodes, horizon)
		t.Logf("chaos round %d: %v", round, plan)
		if err := fn(round, plan); err != nil {
			t.Fatalf("chaos round %d (replay with faults.RandomPlan(%d, ...)): %v", round, rs, err)
		}
	}
}
