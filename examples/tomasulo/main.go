// Tomasulo models a Tomasulo-style dynamically scheduled machine as an
// RCPN — the extension the paper's technical report covers ("more complex
// examples capturing VLIW and multi-issue machines as well as RCPN model of
// the Tomasulo algorithm"). It exercises three RCPN features the in-order
// models don't:
//
//   - reservation stations are simply stages with capacity > 1 (the paper's
//     definition of a pipeline stage explicitly includes reservation
//     stations);
//   - the common data bus is a stage of capacity 1 shared by two places, so
//     result broadcasts from the two function units arbitrate naturally
//     through the RCPN enabling rule;
//   - register renaming falls out of the reg package: every destination
//     reservation stacks a new pending writer, consumers capture either the
//     value (if ready) or the producer RegRef as a tag at dispatch, and the
//     reservation-order stamps keep out-of-order writebacks architecturally
//     correct.
//
// Run with: go run ./examples/tomasulo
package main

import (
	"fmt"

	"rcpn/internal/core"
	"rcpn/internal/reg"
)

const (
	classALU core.ClassID = iota
	classMEM
	numClasses
)

// operand is a Tomasulo source: either a captured value or a producer tag.
type operand struct {
	ref      *reg.Ref // reference used to read the register file
	producer *reg.Ref // tag: the pending writer captured at dispatch
	val      uint32
	captured bool
}

// available reports whether the operand can be supplied to the FU.
func (o *operand) available() bool {
	return o.captured || o.producer.Ready()
}

// value resolves the operand (guards must have checked available).
func (o *operand) value() uint32 {
	if o.captured {
		return o.val
	}
	return o.producer.Value()
}

type instr struct {
	name   string
	tok    *core.Token
	s1, s2 *operand
	dst    *reg.Ref
	op     func(a, b uint32) uint32
	delay  int64 // execution latency (multiply, memory)
}

func (in *instr) State() int { return in.tok.State() }

// pool recycles instruction tokens between program runs.
var pool core.TokenArena

func main() {
	gpr := reg.NewFile("R", 8)
	regs := make([]*reg.Register, 8)
	for i := range regs {
		regs[i] = gpr.Register(fmt.Sprintf("r%d", i), i)
	}

	n := core.NewNet(int(numClasses))
	di := n.Place("DI", n.Stage("DI", 1)) // dispatch latch
	rsa := n.Place("RS.alu", n.Stage("RS.alu", 3))
	rsm := n.Place("RS.mem", n.Stage("RS.mem", 2))
	fua := n.Place("FU.alu", n.Stage("FU.alu", 1))
	fum := n.Place("FU.mem", n.Stage("FU.mem", 1))
	cdbStage := n.Stage("CDB", 1) // ONE bus: shared by both result paths
	cdba := n.Place("CDB.alu", cdbStage)
	cdbm := n.Place("CDB.mem", cdbStage)
	end := n.EndPlace("end")

	get := func(tok *core.Token) *instr { return tok.Data.(*instr) }
	trace := func(tok *core.Token, f string, a ...any) {
		fmt.Printf("  cycle %2d: %-7s %s\n", n.CycleCount(), get(tok).name, fmt.Sprintf(f, a...))
	}

	// Dispatch: capture ready operands, record producer tags for the rest,
	// and rename the destination (stacked reservation). The reservation
	// station's capacity is the only admission control.
	dispatch := func(tok *core.Token) {
		t := get(tok)
		for _, o := range []*operand{t.s1, t.s2} {
			if o.ref.CanRead() {
				o.ref.Read()
				o.val = o.ref.Value()
				o.captured = true
			} else {
				o.producer = o.ref.Register().File().PendingWriter(o.ref.Register().Cell())
			}
		}
		t.dst.ReserveWrite()
		how := ""
		if !t.s1.captured || !t.s2.captured {
			how = " (waiting on tags)"
		}
		trace(tok, "dispatched to reservation station%s", how)
	}
	n.AddTransition(&core.Transition{Name: "disp.alu", Class: classALU, From: di, To: rsa, Action: dispatch})
	n.AddTransition(&core.Transition{Name: "disp.mem", Class: classMEM, From: di, To: rsm, Action: dispatch})

	// Issue from the reservation station when both operands exist.
	ready := func(tok *core.Token) bool {
		t := get(tok)
		return t.s1.available() && t.s2.available()
	}
	issue := func(tok *core.Token) {
		t := get(tok)
		tok.Delay = t.delay
		trace(tok, "issues to the function unit")
	}
	n.AddTransition(&core.Transition{Name: "issue.alu", Class: classALU, From: rsa, To: fua, Guard: ready, Action: issue})
	n.AddTransition(&core.Transition{Name: "issue.mem", Class: classMEM, From: rsm, To: fum, Guard: ready, Action: issue})

	// Execute: compute into the renamed destination. Moving into the CDB
	// place requires the shared bus stage to be free — broadcast arbitration.
	exec := func(tok *core.Token) {
		t := get(tok)
		t.dst.SetValue(t.op(t.s1.value(), t.s2.value()))
		trace(tok, "executes -> %d (waiting for CDB)", t.dst.Value())
	}
	n.AddTransition(&core.Transition{Name: "exec.alu", Class: classALU, From: fua, To: cdba, Action: exec})
	n.AddTransition(&core.Transition{Name: "exec.mem", Class: classMEM, From: fum, To: cdbm, Action: exec})

	// Broadcast: write back over the CDB (reservation-order stamps keep
	// out-of-order completion architecturally correct).
	wb := func(tok *core.Token) {
		get(tok).dst.Writeback()
		trace(tok, "broadcasts on CDB and retires")
	}
	n.AddTransition(&core.Transition{Name: "wb.alu", Class: classALU, From: cdba, To: end, Action: wb})
	n.AddTransition(&core.Transition{Name: "wb.mem", Class: classMEM, From: cdbm, To: end, Action: wb})

	// Front end. Retired tokens go back to the free-list pool buildProgram
	// drew them from; this toy program is built up front so nothing is
	// recycled within one run, but the wiring is the idiom every
	// long-running model uses to stay allocation-free.
	n.OnRetire(pool.Put)
	program := buildProgram(regs)
	next := 0
	n.AddSource(&core.Source{
		Name: "fetch", To: di,
		Guard: func() bool { return next < len(program) },
		Fire: func() *core.Token {
			in := program[next]
			next++
			fmt.Printf("  cycle %2d: %-7s fetched\n", n.CycleCount(), in.name)
			return in.tok
		},
	})

	n.MustBuild()
	fmt.Println("Tomasulo machine as an RCPN (reservation stations, tags, CDB)")
	fmt.Println("simulating:")
	if _, err := n.Run(func() bool { return n.RetiredCount == uint64(len(program)) }, 300); err != nil {
		panic(err)
	}
	fmt.Printf("\n%d instructions in %d cycles\n", n.RetiredCount, n.CycleCount())
	for i := 0; i < 8; i++ {
		fmt.Printf("r%d=%-6d ", i, regs[i].Value())
	}
	fmt.Println()
	if regs[3].Value() != 47 || regs[4].Value() != 42 || regs[5].Value() != 89 {
		panic("architected results wrong — renaming or CDB model broken")
	}
	fmt.Println("renaming check passed: out-of-order completion left correct architected state")
}

func buildProgram(regs []*reg.Register) []*instr {
	add := func(a, b uint32) uint32 { return a + b }
	mul := func(a, b uint32) uint32 { return a * b }

	mk := func(class core.ClassID, name string, op func(a, b uint32) uint32,
		delay int64, d, s1, s2 int) *instr {
		in := &instr{name: name, op: op, delay: delay}
		in.tok = pool.Get(class, in)
		in.dst = reg.NewRef(regs[d], in)
		in.s1 = &operand{ref: reg.NewRef(regs[s1], in)}
		in.s2 = &operand{ref: reg.NewRef(regs[s2], in)}
		return in
	}

	// r1 and r2 start at zero; build values then exercise hazards:
	//   i0: r1 = r0 + r0        (ALU, fast)          r1 = 0
	//   i1: r1 = r1 + 5-ish ... use constants via extra regs instead:
	// Set up via instructions only (no immediates in this toy ISA):
	// r6 preloaded = 5, r7 preloaded = 37 (below).
	regs[6].Set(5)
	regs[7].Set(37)
	return []*instr{
		// i0: slow load computes r1 = r6 * r7 = 185 (memory-latency class)
		mk(classMEM, "i0:ldmul", mul, 6, 1, 6, 7),
		// i1: r2 = r6 + r7 = 42 (independent, completes before i0: OOO)
		mk(classALU, "i1:add", add, 1, 2, 6, 7),
		// i2: r3 = r2 + r6 = 47 (tag-waits for i1)
		mk(classALU, "i2:add", add, 1, 3, 2, 6),
		// i3: r2 = r6 * r7 + ... rename WAW on r2: r2 = r6+r7 = 42 again but
		//     via the slow unit — i4 below must read the NEW r2 (tag of i3).
		mk(classMEM, "i3:ldadd", add, 6, 2, 6, 7),
		// i4: r4 = r2 + r0 = 42 (must capture i3's tag, not i1's value? No:
		//     at i4's dispatch the newest pending writer of r2 is i3 — the
		//     program-order-correct producer.)
		mk(classALU, "i4:add", add, 1, 4, 2, 0),
		// i5: r5 = r3 + r2 = 47 + 42 = 89 (two tags, CDB contention)
		mk(classALU, "i5:add", add, 1, 5, 3, 2),
	}
}
