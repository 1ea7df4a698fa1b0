package faults

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dpnfs/internal/rpc"
)

// recordingTarget logs applied injections for assertions.
type recordingTarget struct {
	log []string
}

func (r *recordingTarget) SetNodeDown(node string, down bool) {
	if down {
		r.log = append(r.log, "down:"+node)
	} else {
		r.log = append(r.log, "up:"+node)
	}
}
func (r *recordingTarget) SetLink(node string, loss float64, extra time.Duration) {
	if loss == 0 && extra == 0 {
		r.log = append(r.log, "link-ok:"+node)
	} else {
		r.log = append(r.log, "link-bad:"+node)
	}
}
func (r *recordingTarget) SetDiskSlow(node string, factor float64) {
	if factor <= 1 {
		r.log = append(r.log, "disk-ok:"+node)
	} else {
		r.log = append(r.log, "disk-slow:"+node)
	}
}
func (r *recordingTarget) CrashVolatile(node string)   { r.log = append(r.log, "crash:"+node) }
func (r *recordingTarget) RestartVolatile(node string) { r.log = append(r.log, "replay:"+node) }
func (r *recordingTarget) CorruptData(node string, seed int64) {
	r.log = append(r.log, fmt.Sprintf("rot:%s/%d", node, seed))
}
func (r *recordingTarget) MisdirectRead(node string, seed int64) {
	r.log = append(r.log, fmt.Sprintf("misdirect:%s/%d", node, seed))
}
func (r *recordingTarget) ArmTornWrite(node string)      { r.log = append(r.log, "torn:"+node) }
func (r *recordingTarget) Join(_ *rpc.Ctx, node string)  { r.log = append(r.log, "join:"+node) }
func (r *recordingTarget) Drain(_ *rpc.Ctx, node string) { r.log = append(r.log, "drain:"+node) }
func (r *recordingTarget) Scrub(_ *rpc.Ctx)              { r.log = append(r.log, "scrub") }

func TestPlanSortedAndHorizon(t *testing.T) {
	p := NewPlan(1,
		StorageNodeRestart{At: 300 * time.Millisecond, Node: "io1"},
		StorageNodeCrash{At: 100 * time.Millisecond, Node: "io1"},
		SlowDisk{At: 200 * time.Millisecond, Node: "io2", Factor: 4},
	)
	ev := p.Sorted()
	if ev[0].Kind() != "crash" || ev[1].Kind() != "slow-disk" || ev[2].Kind() != "restart" {
		t.Fatalf("bad firing order: %v %v %v", ev[0].Kind(), ev[1].Kind(), ev[2].Kind())
	}
	if p.Horizon() != 300*time.Millisecond {
		t.Fatalf("horizon %v, want 300ms", p.Horizon())
	}
}

// TestEventsApplyThroughTarget: every event kind, replayed in firing order,
// applies itself through the one Target — a crash also drops volatile
// state before a restart replays it, the membership events reach their
// hooks with the node they carry, and the scrub event reaches its own.
func TestEventsApplyThroughTarget(t *testing.T) {
	tg := &recordingTarget{}
	p := NewPlan(1,
		StorageNodeCrash{At: 0, Node: "io1"},
		LinkDegrade{At: time.Millisecond, Node: "io2", Loss: 0.1, ExtraRTT: time.Millisecond},
		SlowDisk{At: 2 * time.Millisecond, Node: "io3", Factor: 3},
		StorageNodeRestart{At: 3 * time.Millisecond, Node: "io1"},
		LinkRestore{At: 4 * time.Millisecond, Node: "io2"},
		SlowDisk{At: 5 * time.Millisecond, Node: "io3", Factor: 1},
		Scrub{At: 9 * time.Millisecond},
		Drain{At: 8 * time.Millisecond, Node: "io4"},
		Join{At: 7 * time.Millisecond, Node: "io9"},
		TornWrite{At: 6 * time.Millisecond, Node: "io2"},
		BitRot{At: 6 * time.Millisecond, Node: "io2", Seed: 5},
		MisdirectedRead{At: 6 * time.Millisecond, Node: "io3", Seed: 6},
	)
	for _, ev := range p.Sorted() {
		ev.Apply(nil, tg)
	}
	want := []string{"down:io1", "crash:io1", "link-bad:io2", "disk-slow:io3", "replay:io1", "up:io1",
		"link-ok:io2", "disk-ok:io3", "torn:io2", "rot:io2/5", "misdirect:io3/6",
		"join:io9", "drain:io4", "scrub"}
	if !reflect.DeepEqual(tg.log, want) {
		t.Fatalf("applied %v, want %v", tg.log, want)
	}
}

func TestRandomPlanDeterministicAndPaired(t *testing.T) {
	nodes := []string{"io1", "io2", "io3"}
	a := RandomPlan(42, nodes, time.Second)
	b := RandomPlan(42, nodes, time.Second)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%v\n%v", a, b)
	}
	if c := RandomPlan(43, nodes, time.Second); c.String() == a.String() {
		t.Fatal("different seeds produced identical plans")
	}
	// Every derived plan heals itself: each crash has a later restart on
	// the same node, and the schedule fits the horizon.
	for seed := int64(0); seed < 50; seed++ {
		p := RandomPlan(seed, nodes, time.Second)
		if p.Horizon() > time.Second {
			t.Fatalf("seed %d: horizon %v exceeds 1s", seed, p.Horizon())
		}
		crashes := map[string]time.Duration{}
		for _, ev := range p.Sorted() {
			switch e := ev.(type) {
			case StorageNodeCrash:
				crashes[e.Node] = e.At
			case StorageNodeRestart:
				at, ok := crashes[e.Node]
				if !ok || e.At <= at {
					t.Fatalf("seed %d: restart of %s not after its crash", seed, e.Node)
				}
				delete(crashes, e.Node)
			}
		}
		if len(crashes) != 0 {
			t.Fatalf("seed %d: unpaired crash %v", seed, crashes)
		}
	}
}

// chaosTB captures harness output without failing the real test.
type chaosTB struct {
	logs   int
	fatals int
	last   string
}

func (c *chaosTB) Helper()                      {}
func (c *chaosTB) Logf(string, ...any)          { c.logs++ }
func (c *chaosTB) Fatalf(f string, args ...any) { c.fatals++; c.last = f }
func (c *chaosTB) errOnRound(round int) func(int, *Plan) error {
	return func(r int, _ *Plan) error {
		if r == round {
			return errBoom
		}
		return nil
	}
}

var errBoom = errTest("boom")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestChaosReportsFailingRound(t *testing.T) {
	tb := &chaosTB{}
	Chaos(tb, 7, 3, []string{"io1"}, time.Second, tb.errOnRound(1))
	if tb.fatals != 1 {
		t.Fatalf("chaos recorded %d failures, want 1", tb.fatals)
	}
	if tb.logs < 2 {
		t.Fatalf("chaos logged %d plans before failing, want >= 2", tb.logs)
	}
	// Same seed, same derived plans: a clean callback passes all rounds.
	tb2 := &chaosTB{}
	Chaos(tb2, 7, 3, []string{"io1"}, time.Second, func(int, *Plan) error { return nil })
	if tb2.fatals != 0 || tb2.logs != 3 {
		t.Fatalf("clean chaos run: fatals=%d logs=%d", tb2.fatals, tb2.logs)
	}
}

// TestEventKindsAndTargets: every event's metrics label, and the node it
// manipulates — none for a scrub pass, which covers the whole cluster.
func TestEventKindsAndTargets(t *testing.T) {
	for _, c := range []struct {
		ev           Event
		kind, target string
	}{
		{StorageNodeCrash{Node: "io1"}, "crash", "io1"},
		{StorageNodeRestart{Node: "io1"}, "restart", "io1"},
		{LinkDegrade{Node: "io2"}, "link-degrade", "io2"},
		{LinkRestore{Node: "io2"}, "link-restore", "io2"},
		{SlowDisk{Node: "io3"}, "slow-disk", "io3"},
		{BitRot{Node: "io4"}, "bit-rot", "io4"},
		{MisdirectedRead{Node: "io5"}, "misdirected-read", "io5"},
		{TornWrite{Node: "io6"}, "torn-write", "io6"},
		{Join{Node: "io9"}, "join", "io9"},
		{Drain{Node: "io7"}, "drain", "io7"},
		{Scrub{}, "scrub", ""},
	} {
		if kind, target := c.ev.Kind(), c.ev.Target(); kind != c.kind || target != c.target {
			t.Errorf("%T: Kind %q, Target %q; want %q, %q", c.ev, kind, target, c.kind, c.target)
		}
	}
}
