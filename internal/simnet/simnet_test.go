package simnet

import (
	"testing"
	"time"

	"dpnfs/internal/sim"
)

func twoNodes(bps float64) (*sim.Kernel, *Fabric, *Node, *Node) {
	k := sim.NewKernel(1)
	f := NewFabric(k)
	a := f.AddNode(NodeConfig{Name: "a", BytesPerSec: bps})
	b := f.AddNode(NodeConfig{Name: "b", BytesPerSec: bps})
	return k, f, a, b
}

func TestUncontendedTransferCost(t *testing.T) {
	k, f, a, b := twoNodes(Gigabit)
	var done sim.Time
	k.Go("xfer", func(p *sim.Proc) {
		done = f.Transfer(p, a, b, 1_250_000) // 10 ms at 1 Gb/s
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(10*time.Millisecond + 100*time.Microsecond)
	if done != want {
		t.Fatalf("transfer done at %v, want %v (no store-and-forward double count)", done, want)
	}
}

func TestTransferSharesSenderNIC(t *testing.T) {
	// Two concurrent 10 ms transfers out of the same node must serialize on
	// its transmit queue: second completes ~20 ms, not ~10 ms.
	k := sim.NewKernel(1)
	f := NewFabric(k)
	a := f.AddNode(NodeConfig{Name: "a"})
	b := f.AddNode(NodeConfig{Name: "b"})
	c := f.AddNode(NodeConfig{Name: "c"})
	var t1, t2 sim.Time
	k.Go("x1", func(p *sim.Proc) { t1 = f.Transfer(p, a, b, 1_250_000) })
	k.Go("x2", func(p *sim.Proc) { t2 = f.Transfer(p, a, c, 1_250_000) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 >= t2 {
		t.Fatalf("FIFO order violated: %v >= %v", t1, t2)
	}
	if got := time.Duration(t2); got < 19*time.Millisecond {
		t.Fatalf("second transfer finished at %v; sender NIC not shared", got)
	}
}

func TestTransferSharesReceiverNIC(t *testing.T) {
	// Two senders into one receiver: receiver rx queue is the bottleneck.
	k := sim.NewKernel(1)
	f := NewFabric(k)
	a := f.AddNode(NodeConfig{Name: "a"})
	b := f.AddNode(NodeConfig{Name: "b"})
	dst := f.AddNode(NodeConfig{Name: "dst"})
	var done [2]sim.Time
	k.Go("x1", func(p *sim.Proc) { done[0] = f.Transfer(p, a, dst, 1_250_000) })
	k.Go("x2", func(p *sim.Proc) { done[1] = f.Transfer(p, b, dst, 1_250_000) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	last := done[1]
	if time.Duration(last) < 19*time.Millisecond {
		t.Fatalf("receiver NIC not shared: last transfer at %v", time.Duration(last))
	}
}

func TestLoopbackBypassesNIC(t *testing.T) {
	k, f, a, _ := twoNodes(Gigabit)
	var done sim.Time
	k.Go("x", func(p *sim.Proc) {
		done = f.Transfer(p, a, a, 100<<20) // 100 MB loopback
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if time.Duration(done) > time.Millisecond {
		t.Fatalf("loopback transfer took %v; should not use NIC", time.Duration(done))
	}
	if a.NIC.TxBusy() != 0 {
		t.Fatal("loopback consumed NIC tx time")
	}
}

func TestSendDeliversMessage(t *testing.T) {
	k, f, a, b := twoNodes(Gigabit)
	inbox := b.Service("nfs")
	var got any
	var at, sent sim.Time
	k.Go("recv", func(p *sim.Proc) {
		got = inbox.Recv(p)
		at = p.Now()
	})
	k.Go("send", func(p *sim.Proc) {
		f.Send(p, a, b, inbox, "hello", 1000)
		sent = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("delivered %v, want hello", got)
	}
	// 1000 bytes at 1 Gb/s is 8 µs, plus the one-way latency; the sender
	// stays blocked until the message is in the inbox.
	want := sim.Time(8*time.Microsecond + RTT/2)
	if at != want || sent != want {
		t.Fatalf("delivered at %v, sender resumed at %v, want both %v",
			time.Duration(at), time.Duration(sent), time.Duration(want))
	}
}

func TestHundredMbpsIsTenTimesSlower(t *testing.T) {
	run := func(bps float64) time.Duration {
		k, f, a, b := twoNodes(bps)
		var done sim.Time
		k.Go("x", func(p *sim.Proc) { done = f.Transfer(p, a, b, 10_000_000) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Duration(done)
	}
	g := run(Gigabit)
	fe := run(FastEther)
	ratio := float64(fe) / float64(g)
	if ratio < 9 || ratio > 11 {
		t.Fatalf("100 Mbps / 1 Gbps time ratio = %.2f, want ~10", ratio)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node name did not panic")
		}
	}()
	k := sim.NewKernel(1)
	f := NewFabric(k)
	f.AddNode(NodeConfig{Name: "a"})
	f.AddNode(NodeConfig{Name: "a"})
}

func TestUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown node lookup did not panic")
		}
	}()
	f := NewFabric(sim.NewKernel(1))
	f.Node("ghost")
}

func TestLinkDegradeAddsDelay(t *testing.T) {
	k, f, a, b := twoNodes(Gigabit)
	b.SetLink(0, 5*time.Millisecond) // pure extra RTT, no loss
	var done sim.Time
	k.Go("xfer", func(p *sim.Proc) {
		done = f.Transfer(p, a, b, 1_250_000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// ExtraRTT is round-trip inflation: each one-way transfer pays half.
	want := sim.Time(10*time.Millisecond + 100*time.Microsecond + 2500*time.Microsecond)
	if done != want {
		t.Fatalf("degraded transfer done at %v, want %v", time.Duration(done), time.Duration(want))
	}
	// Restoring the link removes the penalty.
	b.SetLink(0, 0)
	var again sim.Time
	k.Go("xfer2", func(p *sim.Proc) {
		start := p.Now()
		end := f.Transfer(p, a, b, 1_250_000)
		again = end - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if again != sim.Time(10*time.Millisecond+100*time.Microsecond) {
		t.Fatalf("restored transfer took %v", time.Duration(again))
	}
}

func TestLinkLossPaysRetransmitTimeout(t *testing.T) {
	// Full loss: every message pays exactly one RTO — and the penalty is
	// deterministic for a given kernel seed.
	k, f, a, b := twoNodes(Gigabit)
	b.SetLink(1.0, 0)
	var done sim.Time
	k.Go("xfer", func(p *sim.Proc) {
		done = f.Transfer(p, a, b, 1_250_000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(10*time.Millisecond + 100*time.Microsecond + RetransmitTimeout)
	if done != want {
		t.Fatalf("lossy transfer done at %v, want %v", time.Duration(done), time.Duration(want))
	}
}
