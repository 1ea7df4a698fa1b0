package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*time.Millisecond) {
		t.Fatalf("woke at %d, want %d", woke, 5*time.Millisecond)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Go("p", func(p *Proc) {
		p.Sleep(-time.Second)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 0 {
		t.Fatalf("negative sleep advanced time to %d", woke)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Millisecond)
					order = append(order, name)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("run %d: length %d != %d", i, len(got), len(first))
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d: order diverged at %d: %v vs %v", i, j, got, first)
			}
		}
	}
}

func TestTieBreakBySpawnOrder(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Go("first", func(p *Proc) { order = append(order, "first") })
	k.Go("second", func(p *Proc) { order = append(order, "second") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("same-time events not in spawn order: %v", order)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel(1)
	var childRan bool
	k.Go("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		k.Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child spawned from process did not run")
	}
}

func TestFIFOServerQueueing(t *testing.T) {
	k := NewKernel(1)
	srv := NewFIFOServer("disk")
	var done [3]Time
	for i := 0; i < 3; i++ {
		i := i
		k.Go("user", func(p *Proc) {
			done[i] = srv.Use(p, 10*time.Millisecond)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		want := Time((i + 1) * int(10*time.Millisecond))
		if done[i] != want {
			t.Errorf("request %d completed at %d, want %d", i, done[i], want)
		}
	}
	if srv.BusyTime() != 30*time.Millisecond {
		t.Errorf("busy time %v, want 30ms", srv.BusyTime())
	}
}

func TestFIFOServerIdleGap(t *testing.T) {
	k := NewKernel(1)
	srv := NewFIFOServer("nic")
	var second Time
	k.Go("a", func(p *Proc) { srv.Use(p, time.Millisecond) })
	k.Go("b", func(p *Proc) {
		p.Sleep(10 * time.Millisecond) // arrive after the server went idle
		second = srv.Use(p, time.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if second != Time(11*time.Millisecond) {
		t.Fatalf("idle server should serve immediately: done at %d, want %d", second, 11*time.Millisecond)
	}
}

func TestKServerParallelism(t *testing.T) {
	k := NewKernel(1)
	cpu := NewKServer("cpu", 2)
	var done [4]Time
	for i := 0; i < 4; i++ {
		i := i
		k.Go("job", func(p *Proc) {
			done[i] = cpu.Use(p, 10*time.Millisecond)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two servers: jobs 0,1 finish at 10ms; jobs 2,3 at 20ms.
	wants := []Time{Time(10 * time.Millisecond), Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(20 * time.Millisecond)}
	for i, w := range wants {
		if done[i] != w {
			t.Errorf("job %d done at %d, want %d", i, done[i], w)
		}
	}
}

func TestSemaphoreFIFONoBarging(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore("buffers", 4)
	var order []string
	k.Go("big", func(p *Proc) {
		sem.Acquire(p, 4)
		p.Sleep(10 * time.Millisecond)
		sem.Release(4)
		order = append(order, "big")
	})
	k.Go("blockedBig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		sem.Acquire(p, 3) // must wait for "big" to release
		order = append(order, "blockedBig")
		sem.Release(3)
	})
	k.Go("small", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		sem.Acquire(p, 1) // arrives later; must NOT barge past blockedBig
		order = append(order, "small")
		sem.Release(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"big", "blockedBig", "small"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if sem.Available() != 4 {
		t.Fatalf("semaphore leaked: %d available, want 4", sem.Available())
	}
}

// Processes started through a semaphore wait for it without a coroutine:
// n of them behind a semaphore of capacity c hold at most c coroutines (and
// the loop's goroutine), start in arrival order, and fire the events of the
// form that acquires inside the process.
func TestGoAcquireQueuesWithoutCoroutines(t *testing.T) {
	const n, c = 64, 3
	run := func(admit bool) (order []int, peak int, fired uint64) {
		k := NewKernel(1)
		sem := NewSemaphore("slots", c)
		base := runtime.NumGoroutine()
		for i := 0; i < n; i++ {
			body := func(p *Proc) {
				order = append(order, i)
				peak = max(peak, runtime.NumGoroutine()-base)
				p.Sleep(time.Duration(1+i%5) * time.Millisecond)
				sem.Release(1)
			}
			if admit {
				k.GoAcquire(sem, 1, "flow", body)
			} else {
				k.Go("flow", func(p *Proc) {
					sem.Acquire(p, 1)
					body(p)
				})
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		fired = k.EventsFired()
		k.Shutdown()
		waitGoroutines(t, base)
		return order, peak, fired
	}
	order, peak, fired := run(true)
	acqOrder, acqPeak, acqFired := run(false)
	if peak > c+1 {
		t.Errorf("%d goroutines while %d processes wait for %d units, want at most %d", peak, n-c, c, c+1)
	}
	if acqPeak <= c+1 {
		t.Errorf("the Acquire form peaked at %d goroutines: the count does not see parked processes", acqPeak)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("start order %v, want arrival order", order)
		}
	}
	if fmt.Sprint(order) != fmt.Sprint(acqOrder) || fired != acqFired {
		t.Errorf("GoAcquire fired %d events in order %v, the Acquire form %d in order %v", fired, order, acqFired, acqOrder)
	}
}

// A process still waiting for admission when the queue drains is deadlocked
// on its semaphore, and Run names it.
func TestGoAcquireDeadlockNamesSemaphore(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore("pool", 1)
	k.Go("holder", func(p *Proc) { sem.Acquire(p, 1) }) // never releases
	k.GoAcquire(sem, 1, "late", func(p *Proc) { t.Error("admitted without a free unit") })
	de, ok := k.Run().(*DeadlockError)
	if !ok {
		t.Fatalf("want *DeadlockError, got %v", de)
	}
	if len(de.Parked) != 1 || de.Parked["late#2"] != "semaphore pool" {
		t.Fatalf("parked %v, want map[late#2:semaphore pool]", de.Parked)
	}
	k.Shutdown()
}

// A returned process leaves its Proc to the next Go, and a *Proc kept past
// its process's end panics when it blocks, naming the process it stands for
// now: the one that ended, or the one that reuses it.
func TestStaleProcBlockPanics(t *testing.T) {
	k := NewKernel(1)
	var stale *Proc
	var msgs []string
	block := func() {
		defer func() {
			msg, _ := recover().(string)
			msgs = append(msgs, msg)
		}()
		stale.Sleep(time.Millisecond)
	}
	k.Go("gone", func(p *Proc) { stale = p })
	k.Go("user", func(p *Proc) {
		p.Sleep(time.Millisecond)
		block()
		if again := k.Go("reuser", func(p *Proc) { p.Sleep(time.Millisecond) }); again != stale {
			t.Error("Go did not reuse the Proc of a returned process")
		}
		block()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"process gone#1 blocked but is not the running process", "process reuser#3 blocked but is not the running process"}
	if len(msgs) != len(want) {
		t.Fatalf("recovered %q, want panics saying %q", msgs, want)
	}
	for i := range want {
		if !strings.Contains(msgs[i], want[i]) {
			t.Errorf("panic %d: %q, want it to say %q", i, msgs[i], want[i])
		}
	}
	if k.Now() != Time(2*time.Millisecond) {
		t.Errorf("ended at t=%d: a stale Sleep scheduled an event", k.Now())
	}
	k.Shutdown()
}

func TestChanSendRecv(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan("msgs")
	var got []int
	k.Go("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, ch.Recv(p).(int))
		}
	})
	k.Go("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond)
			ch.Send(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got[i] != i {
			t.Fatalf("recv order %v", got)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan("never")
	k.Go("stuck", func(p *Proc) {
		ch.Recv(p)
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Parked) != 1 {
		t.Fatalf("want 1 parked process, got %d", len(de.Parked))
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(1)
	var wg WaitGroup
	var finished Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		k.Go("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	k.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		finished = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != Time(3*time.Millisecond) {
		t.Fatalf("waiter finished at %d, want %d", finished, 3*time.Millisecond)
	}
}

// Property: for any set of sleep durations, each process observes
// monotonically non-decreasing time and wakes exactly at the cumulative sum
// of its sleeps.
func TestPropertySleepAccumulates(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) > 64 {
			durs = durs[:64]
		}
		k := NewKernel(7)
		ok := true
		k.Go("p", func(p *Proc) {
			var sum Time
			for _, d := range durs {
				dd := Duration(d) * time.Microsecond
				p.Sleep(dd)
				sum += Time(dd)
				if p.Now() != sum {
					ok = false
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO server conserves work — total completion time of n
// back-to-back requests equals the sum of service times.
func TestPropertyFIFOServerWorkConserving(t *testing.T) {
	f := func(svc []uint16) bool {
		if len(svc) == 0 {
			return true
		}
		if len(svc) > 64 {
			svc = svc[:64]
		}
		k := NewKernel(7)
		srv := NewFIFOServer("s")
		var last Time
		var sum Time
		for _, s := range svc {
			d := Duration(s) * time.Microsecond
			sum += Time(d)
			k.Go("u", func(p *Proc) {
				last = srv.Use(p, d)
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		return last == sum && Time(srv.BusyTime()) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcesses(t *testing.T) {
	k := NewKernel(1)
	const n = 2000
	count := 0
	for i := 0; i < n; i++ {
		k.Go("p", func(p *Proc) {
			p.Sleep(time.Duration(i%17) * time.Microsecond)
			count++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("ran %d of %d processes", count, n)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k := NewKernel(1)
	k.now = 100
	p := &Proc{k: k, name: "x"}
	k.schedule(p, 50)
}

// goldenScenario runs a scripted mix of every blocking primitive — sleepers
// that tie, a semaphore convoy, a Chan ping-pong, a process that spawns
// children and joins them through a WaitGroup — and returns "microseconds:name" for
// every resumption (process start and every return from a blocking call).
func goldenScenario(t *testing.T) (trace []string, fired uint64) {
	k := NewKernel(1)
	rec := func(p *Proc) {
		trace = append(trace, fmt.Sprintf("%d:%s", p.Now()/Time(time.Microsecond), p.Name()))
	}
	for i, period := range []Duration{time.Millisecond, time.Millisecond, 2 * time.Millisecond} {
		k.Go(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			rec(p)
			for j := 0; j < 3; j++ {
				p.Sleep(period)
				rec(p)
			}
		})
	}
	sem := NewSemaphore("convoy", 2)
	for i := 0; i < 4; i++ {
		k.Go(fmt.Sprintf("convoy%d", i), func(p *Proc) {
			rec(p)
			sem.Acquire(p, 1)
			rec(p)
			p.Sleep(1500 * time.Microsecond)
			rec(p)
			sem.Release(1)
		})
	}
	ping, pong := NewChan("ping"), NewChan("pong")
	k.Go("pinger", func(p *Proc) {
		rec(p)
		for i := 0; i < 3; i++ {
			ping.Send(i)
			pong.Recv(p)
			rec(p)
		}
	})
	k.Go("ponger", func(p *Proc) {
		rec(p)
		for i := 0; i < 3; i++ {
			ping.Recv(p)
			rec(p)
			p.Sleep(700 * time.Microsecond)
			rec(p)
			pong.Send(i)
		}
	})
	k.Go("parent", func(p *Proc) {
		rec(p)
		p.Sleep(2 * time.Millisecond)
		rec(p)
		var wg WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			d := Duration(3-i) * 500 * time.Microsecond
			k.Go(fmt.Sprintf("child%d", i), func(c *Proc) {
				defer wg.Done()
				rec(c)
				c.Sleep(d)
				rec(c)
			})
		}
		wg.Wait(p)
		rec(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return trace, k.EventsFired()
}

// goldenTrace is goldenScenario's output under the kernel as it stood before
// the baton-passing rework (captured at commit 9378812): the scheduling order
// every figure depends on.
var goldenTrace = strings.Fields(`
0:sleeper0 0:sleeper1 0:sleeper2 0:convoy0 0:convoy0 0:convoy1 0:convoy1 0:convoy2
0:convoy3 0:pinger 0:ponger 0:ponger 0:parent
700:ponger 700:pinger 700:ponger
1000:sleeper0 1000:sleeper1
1400:ponger 1400:pinger 1400:ponger
1500:convoy0 1500:convoy1 1500:convoy2 1500:convoy3
2000:sleeper2 2000:parent 2000:sleeper0 2000:sleeper1 2000:child0 2000:child1 2000:child2
2100:ponger 2100:pinger
2500:child2
3000:convoy2 3000:convoy3 3000:sleeper0 3000:sleeper1 3000:child1
3500:child0 3500:parent
4000:sleeper2
6000:sleeper2
`)

const goldenEventsFired = 41

func TestGoldenTrace(t *testing.T) {
	trace, fired := goldenScenario(t)
	if fired != goldenEventsFired {
		t.Errorf("EventsFired = %d, want %d", fired, goldenEventsFired)
	}
	if len(trace) != len(goldenTrace) {
		t.Fatalf("trace has %d resumptions, want %d:\n%s", len(trace), len(goldenTrace), strings.Join(trace, "\n"))
	}
	for i := range trace {
		if trace[i] != goldenTrace[i] {
			t.Fatalf("resumption %d: got %q, want %q\nfull trace:\n%s", i, trace[i], goldenTrace[i], strings.Join(trace, "\n"))
		}
	}
}

func TestRunTwice(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan("work")
	var got []int
	k.Go("server", func(p *Proc) {
		p.MarkDaemon()
		for {
			got = append(got, ch.Recv(p).(int))
		}
	})
	k.Go("first", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Send(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != Time(time.Millisecond) || len(got) != 1 {
		t.Fatalf("after first Run: now %d, got %v", k.Now(), got)
	}
	// The second batch starts where the first stopped and finds the daemon
	// still serving.
	k.Go("second", func(p *Proc) {
		p.Sleep(time.Millisecond)
		ch.Send(2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != Time(2*time.Millisecond) || len(got) != 2 || got[1] != 2 {
		t.Fatalf("after second Run: now %d, got %v", k.Now(), got)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run with nothing to do: %v", err)
	}
	k.Shutdown()
}

func TestDeadlockErrorNamesAndReasons(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan("never")
	sem := NewSemaphore("pool", 1)
	var wg WaitGroup
	wg.Add(1)
	k.Go("daemon", func(p *Proc) {
		p.MarkDaemon()
		NewChan("idle").Recv(p)
	})
	k.Go("a", func(p *Proc) { ch.Recv(p) })
	k.Go("b", func(p *Proc) {
		sem.Acquire(p, 1)
		p.Sleep(time.Millisecond)
		sem.Acquire(p, 1)
	})
	k.Go("c", func(p *Proc) { wg.Wait(p) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	want := map[string]string{"a#2": "chan never", "b#3": "semaphore pool", "c#4": "waitgroup"}
	if len(de.Parked) != len(want) {
		t.Fatalf("parked %v, want %v", de.Parked, want)
	}
	for name, why := range want {
		if de.Parked[name] != why {
			t.Fatalf("parked %v, want %v", de.Parked, want)
		}
	}
	const msg = "sim: deadlock at t=1ms: 3 parked process(es): [a#2: chan never] [b#3: semaphore pool] [c#4: waitgroup]"
	if err.Error() != msg {
		t.Fatalf("message %q, want %q", err.Error(), msg)
	}
	k.Shutdown()
}

// A process that ends through runtime.Goexit — what t.Fatal does — must
// let the simulation go on like one that returns.
func TestGoexitInsideProcess(t *testing.T) {
	k := NewKernel(1)
	var finished []string
	for _, name := range []string{"before", "after"} {
		k.Go(name, func(p *Proc) {
			p.Sleep(2 * time.Millisecond)
			finished = append(finished, name)
		})
		if name == "before" {
			k.Go("quitter", func(p *Proc) {
				defer func() { finished = append(finished, "quitter's defer") }()
				p.Sleep(time.Millisecond)
				runtime.Goexit()
			})
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(finished, ", "); got != "quitter's defer, before, after" {
		t.Fatalf("finished: %s", got)
	}
	k.Shutdown()
}

// When the next event belongs to the process that is blocking, it keeps
// running: no coroutine switch, but the event counts.
func TestOwnEventNextNeedsNoSwitch(t *testing.T) {
	k := NewKernel(1)
	const sleeps = 100
	k.Go("solo", func(p *Proc) {
		for i := 0; i < sleeps; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.resumes != 1 {
		t.Errorf("the loop resumed the process %d times, want 1 (its start)", k.resumes)
	}
	if k.EventsFired() != sleeps+1 || k.Now() != Time(sleeps*time.Millisecond) {
		t.Fatalf("fired %d events to t=%d, want %d to t=%d", k.EventsFired(), k.Now(), sleeps+1, sleeps*time.Millisecond)
	}
	k.Shutdown()
}

// A switch between processes allocates nothing: after a warm-up, 1000 round
// trips of two processes that ping-pong over Chans make no allocation.
func TestHandoffAllocatesNothing(t *testing.T) {
	const roundTrips = 1000
	k := NewKernel(1)
	ping, pong := NewChan("ping"), NewChan("pong")
	allocs := -1.0
	k.Go("pinger", func(p *Proc) {
		exchange := func() {
			for i := 0; i < roundTrips; i++ {
				ping.Send(0)
				pong.Recv(p)
			}
		}
		exchange() // warm-up: starts the ponger and grows the queues
		allocs = testing.AllocsPerRun(10, exchange)
	})
	k.Go("ponger", func(p *Proc) {
		p.MarkDaemon()
		for {
			pong.Send(ping.Recv(p))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per %d round trips, want 0", allocs, roundTrips)
	}
	// Two switches per round trip, plus the pinger's start; AllocsPerRun
	// makes 11 calls, and the warm-up one more.
	if want := uint64(1 + 2*12*roundTrips); k.resumes != want {
		t.Errorf("the loop resumed processes %d times, want %d", k.resumes, want)
	}
	k.Shutdown()
}

// waitGoroutines waits for goroutines that Shutdown has ended but that may
// still be on their way out, and fails if more than want remain.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShutdown(t *testing.T) {
	cases := []struct {
		name string
		// build populates the kernel and returns what the deferred
		// functions of its processes must have logged after Shutdown.
		build func(t *testing.T, k *Kernel, log func(string)) (want string)
	}{
		{"parked daemons and a deadlocked process", func(t *testing.T, k *Kernel, log func(string)) string {
			for _, name := range []string{"d1", "d2"} {
				k.Go(name, func(p *Proc) {
					defer log(name)
					p.MarkDaemon()
					NewChan("idle").Recv(p)
				})
			}
			k.Go("stuck", func(p *Proc) {
				defer log("stuck")
				NewSemaphore("none", 1).Acquire(p, 1)
				NewSemaphore("none", 1).Acquire(p, 1)
				var wg WaitGroup
				wg.Add(1)
				wg.Wait(p)
			})
			if _, ok := k.Run().(*DeadlockError); !ok {
				t.Fatal("want a deadlock")
			}
			return "d1 d2 stuck" // creation order
		}},
		{"idle recycled workers", func(t *testing.T, k *Kernel, log func(string)) string {
			for i := 0; i < 8; i++ {
				k.Go("short", func(p *Proc) { p.Sleep(time.Millisecond) })
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if len(k.idle) != 8 {
				t.Fatalf("%d idle workers, want 8", len(k.idle))
			}
			// A second batch runs on the same workers: it ends with the
			// same eight idle, and no other.
			before := map[*worker]bool{}
			for _, w := range k.idle {
				before[w] = true
			}
			for i := 0; i < 8; i++ {
				k.Go("short", func(p *Proc) { p.Sleep(time.Millisecond) })
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if len(k.idle) != 8 {
				t.Fatalf("second batch: %d idle workers, want 8", len(k.idle))
			}
			for _, w := range k.idle {
				if !before[w] {
					t.Fatal("second batch: a new worker ran it instead of a recycled one")
				}
			}
			return ""
		}},
		{"processes that never started", func(t *testing.T, k *Kernel, log func(string)) string {
			for i := 0; i < 4; i++ {
				p := k.Go("unborn", func(p *Proc) {
					defer log("unborn")
					p.Sleep(time.Millisecond)
				})
				if p.w != nil {
					t.Fatalf("Go bound a worker before the start event fired")
				}
			}
			if len(k.idle) != 0 || len(k.procs) != 0 {
				t.Fatalf("Go left %d idle workers and %d started processes, want none before the start events fired", len(k.idle), len(k.procs))
			}
			return "" // Run never called: nothing ran, nothing to unwind
		}},
		{"processes waiting for admission", func(t *testing.T, k *Kernel, log func(string)) string {
			sem := NewSemaphore("slots", 1)
			k.Go("holder", func(p *Proc) {
				defer log("holder")
				p.MarkDaemon()
				sem.Acquire(p, 1)
				NewChan("idle").Recv(p)
			})
			for i := 0; i < 4; i++ {
				k.GoAcquire(sem, 1, "queued", func(p *Proc) {
					defer log("queued")
					p.MarkDaemon()
				})
			}
			if _, ok := k.Run().(*DeadlockError); !ok {
				t.Fatal("want the queued processes reported")
			}
			return "holder" // the queued ones hold no coroutine: dropped unrun
		}},
		{"a started process whose wake-up is still queued", func(t *testing.T, k *Kernel, log func(string)) string {
			ch := NewChan("inbox")
			k.Go("server", func(p *Proc) {
				defer log("server")
				p.MarkDaemon()
				ch.Recv(p)
				log("server got a message")
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			ch.Send(1) // readies the server; nobody calls Run again
			return "server"
		}},
		{"deferred functions that use the primitives", func(t *testing.T, k *Kernel, log func(string)) string {
			sem := NewSemaphore("threads", 1)
			ch := NewChan("done")
			var wg WaitGroup
			wg.Add(1)
			k.Go("waiter", func(p *Proc) {
				defer log("waiter")
				p.MarkDaemon()
				sem.Acquire(p, 1)
				ch.Recv(p) // woken by nobody: holder's deferred Send must not resume it
				log("waiter resumed")
			})
			k.Go("holder", func(p *Proc) {
				defer log("holder")
				defer sem.Release(1)
				defer ch.Send(1)
				defer wg.Done()
				p.MarkDaemon()
				sem.Acquire(p, 1)
			})
			k.Go("reparker", func(p *Proc) {
				defer log("reparker")
				defer func() {
					NewChan("again").Recv(p)
					log("reparker resumed")
				}()
				p.MarkDaemon()
				NewChan("first").Recv(p)
			})
			k.Go("resleeper", func(p *Proc) {
				defer log("resleeper")
				defer func() {
					p.Sleep(time.Millisecond)
					log("resleeper resumed")
				}()
				p.MarkDaemon()
				NewChan("first").Recv(p)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			return "waiter holder reparker resleeper"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := runtime.NumGoroutine()
			k := NewKernel(1)
			var logged []string
			want := tc.build(t, k, func(s string) { logged = append(logged, s) })
			k.Shutdown()
			waitGoroutines(t, start)
			if got := strings.Join(logged, " "); got != want {
				t.Errorf("deferred functions logged %q, want %q", got, want)
			}
			k.Shutdown() // a no-op
			for name, fn := range map[string]func(){
				"Go":  func() { k.Go("late", func(*Proc) {}) },
				"Run": func() { k.Run() },
			} {
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "shut down") {
							t.Errorf("%s after Shutdown: recovered %q, want a panic that says the kernel was shut down", name, msg)
						}
					}()
					fn()
				}()
			}
		})
	}
}
