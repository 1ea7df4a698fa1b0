// Package simnet models a cluster network on top of the sim kernel: named
// nodes with full-duplex network interfaces (bandwidth + latency), CPUs, and
// message delivery to named services.
//
// The transfer model is cut-through: a message of m bytes books m/bw of
// service on the sender's transmit queue and on the receiver's receive
// queue, with the receive stage starting no earlier than the first byte's
// arrival (transmit start + propagation latency).  An uncontended transfer
// therefore costs m/bw + latency, not 2·m/bw, while contention at either
// endpoint queues FIFO — exactly the bottleneck structure that shapes the
// paper's throughput curves.
//
// Paper mapping: the testbed network of §6.1 — gigabit Ethernet NICs
// (simnet.Gigabit) everywhere, with simnet.FastEther reproducing the
// 100 Mbps constrained-network experiment of Figure 6c.
package simnet

import (
	"fmt"
	"time"

	"dpnfs/internal/sim"
)

// Bandwidth constants in bytes per second.
const (
	Gigabit     = 125_000_000 // 1 Gb/s Ethernet payload rate
	FastEther   = 12_500_000  // 100 Mb/s Ethernet
	DefaultRTT  = 200 * time.Microsecond
	DefaultCore = 2
)

// RetransmitTimeout is the delay a message pays when a lossy link drops it:
// the discrete-event treatment of packet loss is the sender's retransmission
// timer, which turns loss probability into tail latency (Linux's 200 ms
// TCP RTO floor).  Fault plans set per-node loss via Node.SetLink.
const RetransmitTimeout = 200 * time.Millisecond

// NIC is one full-duplex network interface.
type NIC struct {
	BytesPerSec float64
	Latency     time.Duration // one-way propagation + per-message fixed cost
	tx          *sim.FIFOServer
	rx          *sim.FIFOServer
}

// TxBusy reports cumulative transmit service time (utilization statistics).
func (n *NIC) TxBusy() time.Duration { return n.tx.BusyTime() }

// RxBusy reports cumulative receive service time.
func (n *NIC) RxBusy() time.Duration { return n.rx.BusyTime() }

func (n *NIC) xmitTime(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / n.BytesPerSec * 1e9)
}

// Processor returns the node's CPU, or nil for a nil node (endpoints built
// without a simulated node charge no CPU).
func (n *Node) Processor() *sim.KServer {
	if n == nil {
		return nil
	}
	return n.CPU
}

// Node is a machine in the simulated cluster.
type Node struct {
	Name     string
	NIC      *NIC
	CPU      *sim.KServer
	fabric   *Fabric
	services map[string]*sim.Chan

	// Fault-injection state (internal/faults).  Mutated only from
	// simulation processes, so no locking is needed: the kernel runs one
	// process at a time.
	down     bool
	loss     float64       // per-message drop probability on this NIC
	extraLat time.Duration // added one-way delay (half the SetLink RTT)
}

// SetDown marks the node crashed (unreachable) or restarted.  The rpc layer
// surfaces calls to a down node as retryable errors; in-flight work
// completes (the model is a node that stops accepting new requests, then
// reboots with its storage intact).
func (n *Node) SetDown(down bool) { n.down = down }

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// SetLink degrades (or, with zero values, restores) the node's link: loss
// is the probability a message pays RetransmitTimeout, extra is added
// round-trip delay — each one-way transfer through this node pays half, so
// a request/reply pair through a degraded node pays the full value once.
func (n *Node) SetLink(loss float64, extra time.Duration) {
	n.loss = loss
	n.extraLat = extra / 2
}

// Service returns (creating on demand) the inbox channel for a named
// service on this node, e.g. "nfs", "pvfs-io", "pvfs-meta".
func (n *Node) Service(name string) *sim.Chan {
	ch, ok := n.services[name]
	if !ok {
		ch = sim.NewChan(n.Name + "/" + name)
		n.services[name] = ch
	}
	return ch
}

// Fabric is the collection of nodes in one simulated cluster.
type Fabric struct {
	K     *sim.Kernel
	nodes map[string]*Node
}

// NewFabric returns an empty fabric on the given kernel.
func NewFabric(k *sim.Kernel) *Fabric {
	return &Fabric{K: k, nodes: make(map[string]*Node)}
}

// NodeConfig describes one machine.
type NodeConfig struct {
	Name        string
	BytesPerSec float64       // NIC bandwidth; 0 means Gigabit
	Latency     time.Duration // 0 means DefaultRTT/2
	Cores       int           // 0 means DefaultCore
}

// AddNode creates a node.  It panics if the name is already taken.
func (f *Fabric) AddNode(cfg NodeConfig) *Node {
	if _, dup := f.nodes[cfg.Name]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %q", cfg.Name))
	}
	if cfg.BytesPerSec == 0 {
		cfg.BytesPerSec = Gigabit
	}
	if cfg.Latency == 0 {
		cfg.Latency = DefaultRTT / 2
	}
	if cfg.Cores == 0 {
		cfg.Cores = DefaultCore
	}
	n := &Node{
		Name: cfg.Name,
		NIC: &NIC{
			BytesPerSec: cfg.BytesPerSec,
			Latency:     cfg.Latency,
			tx:          sim.NewFIFOServer(cfg.Name + "/tx"),
			rx:          sim.NewFIFOServer(cfg.Name + "/rx"),
		},
		CPU:      sim.NewKServer(cfg.Name+"/cpu", cfg.Cores),
		fabric:   f,
		services: make(map[string]*sim.Chan),
	}
	f.nodes[cfg.Name] = n
	return n
}

// Node looks up a node by name; it panics if absent (topology bugs should
// fail loudly at wiring time).
func (f *Fabric) Node(name string) *Node {
	n, ok := f.nodes[name]
	if !ok {
		panic(fmt.Sprintf("simnet: unknown node %q", name))
	}
	return n
}

// Message is what arrives in a service inbox.
type Message struct {
	From    *Node
	Payload any
	Size    int64
	Arrived sim.Time
}

// Transfer blocks p for the duration of moving size bytes from src to dst
// and returns the delivery time.  Loopback (src == dst) costs no network
// resources and a negligible fixed time.
func (f *Fabric) Transfer(p *sim.Proc, src, dst *Node, size int64) sim.Time {
	if src == dst {
		p.Sleep(10 * time.Microsecond) // local softirq/loopback cost
		return p.Now()
	}
	svcTx := src.NIC.xmitTime(size)
	txDone := src.NIC.tx.Reserve(p.Now(), svcTx)
	txStart := txDone - sim.Time(svcTx)
	latency := src.NIC.Latency + src.extraLat + dst.extraLat
	firstByte := txStart + sim.Time(latency)
	svcRx := dst.NIC.xmitTime(size)
	rxDone := dst.NIC.rx.Reserve(firstByte, svcRx)
	// Injected loss on either endpoint: the dropped message is retransmitted
	// after the sender's RTO, so loss shows up as tail latency, not as a
	// hung reply channel.  The penalty lands after the receive stage — a
	// dropped packet never reaches the receiver's NIC, so it must not hold
	// the rx queue across the timeout gap (unrelated messages, including a
	// hedged duplicate's reply, keep flowing while the sender waits out the
	// RTO).
	if pLoss := src.loss + dst.loss - src.loss*dst.loss; pLoss > 0 &&
		f.K.Rand().Float64() < pLoss {
		rxDone += sim.Time(RetransmitTimeout)
	}
	p.SleepUntilTime(rxDone)
	return rxDone
}

// Send transfers size bytes of payload from src to the named service on dst,
// blocking p until delivery, then enqueues the message.
func (f *Fabric) Send(p *sim.Proc, src, dst *Node, service string, payload any, size int64) {
	at := f.Transfer(p, src, dst, size)
	dst.Service(service).Send(Message{From: src, Payload: payload, Size: size, Arrived: at})
}

// SendTo is like Send but delivers into an explicit channel — used for RPC
// replies, which go to a per-call channel rather than a service inbox.
func (f *Fabric) SendTo(p *sim.Proc, src, dst *Node, ch *sim.Chan, payload any, size int64) {
	at := f.Transfer(p, src, dst, size)
	ch.Send(Message{From: src, Payload: payload, Size: size, Arrived: at})
}
