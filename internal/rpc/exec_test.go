package rpc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dpnfs/internal/sim"
)

// eachMode runs body once per execution mode from the same code: as a kernel
// process (the kernel is driven until it drains, so a flow left parked fails
// the row as a deadlock) and inline on the wall clock.  State shared between
// flows is mutex-guarded in the bodies: the real-time rows run under -race.
func eachMode(t *testing.T, body func(t *testing.T, ctx *Ctx)) {
	t.Run("sim", func(t *testing.T) {
		k := sim.NewKernel(1)
		k.Go("test", func(p *sim.Proc) { body(t, &Ctx{P: p}) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("realtime", func(t *testing.T) { body(t, &Ctx{}) })
}

func TestSemBoundsHoldersAndWakesInOrder(t *testing.T) {
	const n, flows = 3, 12
	eachMode(t, func(t *testing.T, ctx *Ctx) {
		sem := NewSem("test/sem", n)
		var (
			mu       sync.Mutex
			holders  int
			peak     int
			admitted []int
			all      Group
		)
		all.Add(ctx, flows)
		for i := 0; i < flows; i++ {
			i := i
			ctx.Go("holder", func(c *Ctx) {
				defer all.Done(c)
				sem.Acquire(c)
				mu.Lock()
				holders++
				if holders > peak {
					peak = holders
				}
				admitted = append(admitted, i)
				mu.Unlock()
				c.Pause(time.Millisecond)
				mu.Lock()
				holders--
				mu.Unlock()
				sem.Release(c)
			})
		}
		all.Wait(ctx)
		// Over-admission is the bug in either mode; that all n units get used
		// is only certain under the kernel's deterministic schedule.
		if peak > n || (ctx.P != nil && peak != n) {
			t.Errorf("peak holders = %d with %d units", peak, n)
		}
		if len(admitted) != flows {
			t.Fatalf("%d of %d flows admitted", len(admitted), flows)
		}
		// Under the kernel flows arrive in spawn order and the semaphore is
		// FIFO, so admission order is arrival order, run after run.
		if ctx.P != nil && !sort.IntsAreSorted(admitted) {
			t.Errorf("simulated waiters woke out of arrival order: %v", admitted)
		}
	})
}

func TestGroupWaitsForEveryFlow(t *testing.T) {
	const flows = 8
	eachMode(t, func(t *testing.T, ctx *Ctx) {
		var (
			g    Group
			mu   sync.Mutex
			done int
		)
		start := ctx.Stamp()
		g.Add(ctx, flows)
		for i := 0; i < flows; i++ {
			d := time.Duration(i+1) * time.Millisecond
			ctx.Go("flow", func(c *Ctx) {
				if (c.P != nil) != (ctx.P != nil) {
					t.Error("Ctx.Go handed the flow a Ctx of the other mode")
				}
				c.Pause(d)
				mu.Lock()
				done++
				mu.Unlock()
				g.Done(c)
			})
		}
		g.Wait(ctx)
		mu.Lock()
		got := done
		mu.Unlock()
		if got != flows {
			t.Errorf("Wait returned after %d of %d flows called Done", got, flows)
		}
		// The flows overlap: the wait lasts as long as the slowest one.
		if el := ctx.Since(start); ctx.P != nil && el != flows*time.Millisecond {
			t.Errorf("virtual wait = %v, want exactly %v", el, flows*time.Millisecond)
		}
		g.Wait(ctx) // a drained group does not block
	})
}

func TestWakeupHandsOverExactlyOnce(t *testing.T) {
	pending := func(w Wakeup) int {
		if w.sim != nil {
			return w.sim.Len()
		}
		return len(w.rt)
	}
	eachMode(t, func(t *testing.T, ctx *Ctx) {
		// Wake first: the hand-over is stored and Wait consumes it at once.
		early := NewWakeup(ctx, "test/early")
		early.Wake()
		start := ctx.Stamp()
		early.Wait(ctx)
		if el := ctx.Since(start); ctx.P != nil && el != 0 {
			t.Errorf("Wait after Wake took %v of virtual time", el)
		}
		// Wait first: the waiter parks until another flow wakes it.
		late := NewWakeup(ctx, "test/late")
		const delay = 2 * time.Millisecond
		start = ctx.Stamp()
		ctx.Go("owner", func(c *Ctx) {
			c.Pause(delay)
			late.Wake()
		})
		late.Wait(ctx)
		if el := ctx.Since(start); el < delay || (ctx.P != nil && el != delay) {
			t.Errorf("Wait returned %v after parking, owner woke it at %v", el, delay)
		}
		for name, w := range map[string]Wakeup{"early": early, "late": late} {
			if n := pending(w); n != 0 {
				t.Errorf("%s: %d hand-over(s) left after the one Wait", name, n)
			}
		}
	})
}

func TestPauseBlocksOnTheModesClock(t *testing.T) {
	const d = 3 * time.Millisecond
	eachMode(t, func(t *testing.T, ctx *Ctx) {
		start := ctx.Stamp()
		ctx.Pause(d)
		switch el := ctx.Since(start); {
		case ctx.P != nil && el != d:
			t.Errorf("virtual Pause advanced %v, want exactly %v", el, d)
		case el < d:
			t.Errorf("wall-clock Pause returned after %v, want >= %v", el, d)
		}
	})
}

// TestFlowsWaitForEveryFlow: Wait returns only after every top-level flow
// returned, in both modes; under the kernel the flows all start at one
// virtual instant, and a flow left parked is reported as a deadlock.
func TestFlowsWaitForEveryFlow(t *testing.T) {
	const n = 4
	k := sim.NewKernel(1)
	defer k.Shutdown()
	for _, mode := range []*sim.Kernel{k, nil} {
		var (
			mu   sync.Mutex
			done []int
		)
		flows := NewFlows(mode)
		for i := 0; i < n; i++ {
			flows.Go("flow", func(ctx *Ctx) {
				ctx.Pause(time.Duration(n-i) * time.Millisecond)
				mu.Lock()
				done = append(done, i)
				mu.Unlock()
			})
		}
		if err := flows.Wait(); err != nil {
			t.Fatal(err)
		}
		if len(done) != n {
			t.Fatalf("Wait returned after %d of %d flows", len(done), n)
		}
		if mode != nil && !reflect.DeepEqual(done, []int{3, 2, 1, 0}) {
			t.Errorf("simulated flows finished in order %v, want shortest pause first", done)
		}
	}
	stuck := NewFlows(k)
	stuck.Go("stuck", func(ctx *Ctx) { NewWakeup(ctx, "never").Wait(ctx) })
	if err := stuck.Wait(); err == nil {
		t.Error("a flow parked for good did not fail the wait")
	}
}

func TestParallelRunsEveryIndexOnce(t *testing.T) {
	eachMode(t, func(t *testing.T, ctx *Ctx) {
		for _, n := range []int{0, 1, 2, 17} {
			var mu sync.Mutex
			runs := make([]int, n)
			Parallel(ctx, n, func(c *Ctx, i int) {
				if (c.P != nil) != (ctx.P != nil) {
					t.Errorf("n=%d: index %d got a Ctx of the other mode", n, i)
				}
				c.Pause(time.Duration(n-i) * 100 * time.Microsecond)
				mu.Lock()
				runs[i]++
				mu.Unlock()
			})
			for i, r := range runs {
				if r != 1 {
					t.Errorf("n=%d: index %d ran %d times", n, i, r)
				}
			}
		}
	})
}

// TestModeForkStaysInRPC is the guard behind this file's package: outside
// internal/rpc, protocol code may not ask which runtime it is on.  It parses
// the non-test sources of the packages that used to fork by hand and fails on
// any comparison of a Ctx's P with nil, any bare go statement and any
// Kernel() call (spawning around Ctx.Go), except at the listed sites — the
// behaviours that are simulated-only on purpose (docs/ARCHITECTURE.md
// "Execution modes"), each of which must carry a comment saying why.  In
// those packages and in workload and bench it also fails on any type
// assertion or type switch to *rpc.TCPTransport or *rpc.FabricTransport: a
// fault target or a workload does not ask which transport it runs on.
func TestModeForkStaysInRPC(t *testing.T) {
	allowed := map[string]int{ // "pkg/file.go:func" -> mode tests allowed there
		"ioengine/ioengine.go:watchStraggler": 1, // ioengine_wallclock_timers_total counts real-time timers only
		"nfs/read.go:Read":                    1, // NFS readahead
		"pvfs/server.go:acquireBuffers":       1, // the modelled PVFS2 transfer-buffer pool
	}
	seen := map[string]int{}
	fset := token.NewFileSet()
	for _, pkg := range []string{"cluster", "ioengine", "nfs", "pvfs", "scrub", "workload", "bench"} {
		modeChecked := pkg != "workload" && pkg != "bench"
		paths, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no sources for package %s (err %v)", pkg, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			commentEnds := map[int]bool{} // lines a comment group ends on
			for _, cg := range file.Comments {
				commentEnds[fset.Position(cg.End()).Line] = true
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				site := pkg + "/" + filepath.Base(path) + ":" + fn.Name.Name
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					what := ""
					switch n := n.(type) {
					case *ast.TypeAssertExpr:
						if isTransportType(n.Type) {
							what = "type assertion to a transport (use rpc.Transport)"
						}
					case *ast.CaseClause:
						for _, x := range n.List {
							if isTransportType(x) {
								what = "type switch on a transport (use rpc.Transport)"
							}
						}
					}
					if what != "" {
						t.Errorf("%s: %s in %s", fset.Position(n.Pos()), what, fn.Name.Name)
						return true
					}
					if !modeChecked {
						return true
					}
					switch n := n.(type) {
					case *ast.GoStmt:
						what = "bare go statement (use Ctx.Go)"
					case *ast.CallExpr:
						if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Kernel" {
							what = "Kernel() call (use Ctx.Go)"
						}
					case *ast.BinaryExpr:
						if (n.Op != token.EQL && n.Op != token.NEQ) || !(isPNil(n.X, n.Y) || isPNil(n.Y, n.X)) {
							break
						}
						what = "execution-mode test (.P compared with nil)"
						if allowed[site] > 0 {
							if commentEnds[fset.Position(n.Pos()).Line-1] {
								seen[site]++
								return true
							}
							what += " without a comment on the line above saying why"
						}
					}
					if what != "" {
						t.Errorf("%s: %s in %s: the mode fork belongs in internal/rpc/exec.go",
							fset.Position(n.Pos()), what, fn.Name.Name)
					}
					return true
				})
			}
		}
	}
	if !reflect.DeepEqual(seen, allowed) {
		t.Errorf("allow-listed mode tests found: %v, want exactly %v "+
			"(drop a site from the list when its behaviour is lifted to both modes)", seen, allowed)
	}
}

// isTransportType reports whether x is *rpc.TCPTransport or
// *rpc.FabricTransport.
func isTransportType(x ast.Expr) bool {
	star, ok := x.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "rpc" && (sel.Sel.Name == "TCPTransport" || sel.Sel.Name == "FabricTransport")
}

// isPNil reports whether x selects a field named P and y is the nil literal.
func isPNil(x, y ast.Expr) bool {
	sel, ok := x.(*ast.SelectorExpr)
	id, isIdent := y.(*ast.Ident)
	return ok && sel.Sel.Name == "P" && isIdent && id.Name == "nil"
}
