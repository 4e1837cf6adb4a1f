// Vliw models a two-lane VLIW machine as an RCPN — the "VLIW and
// multi-issue machines" extension the paper's technical report covers. It
// demonstrates the token-generation rule of §3: "Any sub-net can generate
// an instruction token and send it to its corresponding sub-net. This is
// equivalent with instructions that generate multiple micro operations in
// a pipeline."
//
// A bundle token carries two operations. At the dispatch transition the
// bundle continues into lane 0 and *injects* a fresh token for its second
// operation into lane 1 (net.Inject). The two lanes execute in parallel
// over a shared register file; the RegRef interface still catches
// cross-lane hazards, so a "bad bundle" (lane 1 consuming lane 0's result)
// visibly stalls instead of reading stale data.
//
// Run with: go run ./examples/vliw
package main

import (
	"fmt"

	"rcpn/internal/core"
	"rcpn/internal/reg"
)

const (
	classBundle core.ClassID = iota
	classOp
	numClasses
)

type op struct {
	name string
	tok  *core.Token
	dst  *reg.Ref
	s1   reg.Operand
	s2   reg.Operand
	fn   func(a, b uint32) uint32
}

func (o *op) State() int { return o.tok.State() }

type bundle struct {
	name string
	tok  *core.Token
	ops  [2]*op
}

func (b *bundle) State() int { return b.tok.State() }

// pool recycles instruction tokens between program runs.
var pool core.TokenArena

func main() {
	gpr := reg.NewFile("R", 8)
	regs := make([]*reg.Register, 8)
	for i := range regs {
		regs[i] = gpr.Register(fmt.Sprintf("r%d", i), i)
	}

	n := core.NewNet(int(numClasses))
	de := n.Place("DE", n.Stage("DE", 1))       // bundle decode latch
	l0 := n.Place("lane0", n.Stage("lane0", 1)) // execution lanes
	l1 := n.Place("lane1", n.Stage("lane1", 1))
	w0 := n.Place("wb0", n.Stage("wb0", 1))
	w1 := n.Place("wb1", n.Stage("wb1", 1))
	end := n.EndPlace("end")

	issueReady := func(o *op) bool {
		return o.s1.CanRead() && o.s2.CanRead() && o.dst.CanWrite()
	}
	issueDo := func(o *op) {
		o.s1.Read()
		o.s2.Read()
		o.dst.ReserveWrite()
	}

	// Dispatch: the bundle heads into lane 0 carrying its first operation
	// and injects a token for the second operation into lane 1. VLIW
	// lockstep: both lanes must be free and both operations issueable.
	n.AddTransition(&core.Transition{
		Name: "dispatch", Class: classBundle, From: de, To: l0,
		Guard: func(tok *core.Token) bool {
			b := tok.Data.(*bundle)
			return l1.Stage.Free() >= 1 && issueReady(b.ops[0]) && issueReady(b.ops[1])
		},
		Action: func(tok *core.Token) {
			b := tok.Data.(*bundle)
			issueDo(b.ops[0])
			issueDo(b.ops[1])
			if !n.Inject(b.ops[1].tok, l1) {
				panic("vliw: lane1 full despite guard")
			}
			fmt.Printf("  cycle %2d: %s dispatched to both lanes\n", n.CycleCount(), b.name)
		},
	})

	exec := func(lane string) func(tok *core.Token) {
		return func(tok *core.Token) {
			var o *op
			switch d := tok.Data.(type) {
			case *bundle:
				o = d.ops[0]
			case *op:
				o = d
			}
			o.dst.SetValue(o.fn(o.s1.Value(), o.s2.Value()))
			fmt.Printf("  cycle %2d: %-8s %s -> %d\n", n.CycleCount(), lane, o.name, o.dst.Value())
		}
	}
	wb := func(tok *core.Token) {
		switch d := tok.Data.(type) {
		case *bundle:
			d.ops[0].dst.Writeback()
		case *op:
			d.dst.Writeback()
		}
	}
	n.AddTransition(&core.Transition{Name: "exec0", Class: classBundle, From: l0, To: w0, Action: exec("lane0:")})
	n.AddTransition(&core.Transition{Name: "exec1", Class: classOp, From: l1, To: w1, Action: exec("lane1:")})
	n.AddTransition(&core.Transition{Name: "wb0", Class: classBundle, From: w0, To: end, Action: wb})
	n.AddTransition(&core.Transition{Name: "wb1", Class: classOp, From: w1, To: end, Action: wb})

	// Retired tokens refill the pool buildProgram drew from (the
	// allocation-free steady-state idiom; a no-op for this one-shot program).
	n.OnRetire(pool.Put)
	program := buildProgram(regs)
	next := 0
	n.AddSource(&core.Source{
		Name: "fetch", To: de,
		Guard: func() bool { return next < len(program) },
		Fire: func() *core.Token {
			b := program[next]
			next++
			fmt.Printf("  cycle %2d: %s fetched\n", n.CycleCount(), b.name)
			return b.tok
		},
	})
	n.MustBuild()

	total := uint64(2 * len(program)) // bundle + injected op per bundle
	fmt.Println("Two-lane VLIW as an RCPN (bundle tokens inject lane-1 micro-ops)")
	fmt.Println("simulating:")
	if _, err := n.Run(func() bool { return n.RetiredCount == total }, 200); err != nil {
		panic(err)
	}
	fmt.Printf("\n%d operations (%d bundles) in %d cycles — operations per cycle %.2f\n",
		total, len(program), n.CycleCount(), float64(total)/float64(n.CycleCount()))
	for i := 0; i < 8; i++ {
		fmt.Printf("r%d=%-5d ", i, regs[i].Value())
	}
	fmt.Println()
	if regs[4].Value() != 30 || regs[5].Value() != 300 || regs[6].Value() != 220 {
		panic("architected results wrong")
	}
}

func buildProgram(regs []*reg.Register) []*bundle {
	add := func(a, b uint32) uint32 { return a + b }
	mul := func(a, b uint32) uint32 { return a * b }

	mkOp := func(name string, fn func(a, b uint32) uint32, d, a int, b reg.Operand) *op {
		o := &op{name: name, fn: fn}
		o.tok = pool.Get(classOp, o)
		o.dst = reg.NewRef(regs[d], o)
		o.s1 = reg.NewRef(regs[a], o)
		o.s2 = b
		return o
	}
	mkBundle := func(name string, o0, o1 *op) *bundle {
		b := &bundle{name: name, ops: [2]*op{o0, o1}}
		b.tok = pool.Get(classBundle, b)
		// The first op rides inside the bundle token.
		o0.tok = b.tok
		return b
	}

	regs[1].Set(10)
	regs[2].Set(100)
	return []*bundle{
		// b0: independent ops — full dual issue.
		mkBundle("b0{r3=r1+r1 | r4=r1+r1+r1...}",
			mkOp("r3=r1+r1", add, 3, 1, reg.NewRef(regs[1], nil)),
			mkOp("r4=r1*3", mul, 4, 1, reg.NewConst(3))),
		// b1: lane1 depends on b0's lane0 result — the hazard interface
		// stalls the whole bundle until r3 is written back (lockstep).
		mkBundle("b1{r5=r2*3 | r6=r3*11}",
			mkOp("r5=r2*3", mul, 5, 2, reg.NewConst(3)),
			mkOp("r6=r3*11", mul, 6, 3, reg.NewConst(11))),
	}
}
