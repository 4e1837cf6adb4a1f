// Outoforder reproduces the paper's §3.2 example end to end: the
// representative out-of-order-completion processor of Figure 4 modeled as
// the RCPN of Figure 5, including
//
//   - the three operation classes (ALU, Branch, LoadStore) built from
//     symbols that decode to RegRef/Const operands;
//   - the feedback path modeled as two prioritized arcs out of place L1:
//     priority 0 reads the first source from the register file
//     (s1.CanRead), priority 1 picks it off the feedback path while the
//     producer sits in L3 (s1.CanReadIn(L3)) — and the Build step
//     automatically gives L3 the two-list algorithm because of it;
//   - a branch that stalls fetch by leaving a reservation token in L1,
//     consumed one cycle later when the branch resolves;
//   - a load/store unit whose latency is data dependent:
//     "t.delay = mem.delay(addr)".
//
// Run with: go run ./examples/outoforder
package main

import (
	"fmt"

	"rcpn/internal/core"
	"rcpn/internal/reg"
)

// Operation classes of Figure 4(b).
const (
	classALU core.ClassID = iota
	classBranch
	classLoadStore
	numClasses
)

// instr is a decoded instruction: symbols already replaced by operands.
type instr struct {
	name string
	tok  *core.Token

	// ALU: d = op(s1, s2)
	op     func(a, b uint32) uint32
	d      *reg.Ref
	s1, s2 reg.Operand

	// LoadStore: load (L=true) or store of r at addr
	load bool
	r    reg.Operand
	addr reg.Operand

	// Branch
	offset reg.Operand
}

func (in *instr) State() int { return in.tok.State() }

// memory is the non-pipeline unit the M transition references: word storage
// plus a data-dependent delay model (§3.2: "The component mem, referenced in
// this transition, can be used from a library").
type memory struct {
	words map[uint32]uint32
}

func (m *memory) delay(addr uint32) int64 {
	if addr%28 == 0 {
		return 5 // "cache miss"
	}
	return 1
}

// pool recycles instruction tokens between program runs.
var pool core.TokenArena

func main() {
	gpr := reg.NewFile("R", 8)
	regs := make([]*reg.Register, 8)
	for i := range regs {
		regs[i] = gpr.Register(fmt.Sprintf("r%d", i), i)
	}
	mem := &memory{words: map[uint32]uint32{}}
	pc := uint32(0)

	n := core.NewNet(int(numClasses))
	l1 := n.Place("L1", n.Stage("L1", 1))
	l2 := n.Place("L2", n.Stage("L2", 1))
	l3 := n.Place("L3", n.Stage("L3", 1))
	l4 := n.Place("L4", n.Stage("L4", 1))
	end := n.EndPlace("end")

	// The writeback stage takes two cycles (a shared writeback port), so a
	// result sits in L3 — visible to the feedback path — before it reaches
	// the register file. This is what makes the priority-1 bypass arc pay
	// off: without it every dependent instruction would wait out the
	// writeback.
	l3.Delay = 2

	get := func(tok *core.Token) *instr { return tok.Data.(*instr) }
	trace := func(tok *core.Token, f string, a ...any) {
		fmt.Printf("  cycle %2d: %-6s %s\n", n.CycleCount(), get(tok).name, fmt.Sprintf(f, a...))
	}

	// --- ALU sub-net (Figure 5, with the two prioritized arcs) ----------
	n.AddTransition(&core.Transition{
		Name: "D", Class: classALU, From: l1, To: l2, Priority: 0,
		Guard: func(tok *core.Token) bool {
			t := get(tok)
			return t.s1.CanRead() && t.s2.CanRead() && t.d.CanWrite()
		},
		Action: func(tok *core.Token) {
			t := get(tok)
			t.s1.Read()
			t.s2.Read()
			t.d.ReserveWrite()
			trace(tok, "issues (register file)")
		},
	})
	n.AddTransition(&core.Transition{
		Name: "Dfwd", Class: classALU, From: l1, To: l2, Priority: 1,
		Reads: []*core.Place{l3}, // feedback query: writer in state L3
		Guard: func(tok *core.Token) bool {
			t := get(tok)
			return t.s1.CanReadIn(l3.ID()) && t.s2.CanRead() && t.d.CanWrite()
		},
		Action: func(tok *core.Token) {
			t := get(tok)
			t.s1.ReadIn(l3.ID())
			t.s2.Read()
			t.d.ReserveWrite()
			trace(tok, "issues (s1 via feedback from L3)")
		},
	})
	n.AddTransition(&core.Transition{
		Name: "E", Class: classALU, From: l2, To: l3,
		Action: func(tok *core.Token) {
			t := get(tok)
			t.d.SetValue(t.op(t.s1.Value(), t.s2.Value()))
			trace(tok, "executes -> %d", t.d.Value())
		},
	})
	n.AddTransition(&core.Transition{
		Name: "We", Class: classALU, From: l3, To: end,
		Action: func(tok *core.Token) {
			t := get(tok)
			t.d.Writeback()
			trace(tok, "writes back")
		},
	})

	// --- Branch sub-net: reservation token stalls fetch -----------------
	n.AddTransition(&core.Transition{
		Name: "Dbr", Class: classBranch, From: l1, To: l2,
		ResOut: []*core.Place{l1}, // occupy the fetch latch
		Guard: func(tok *core.Token) bool {
			return get(tok).offset.CanRead()
		},
		Action: func(tok *core.Token) {
			get(tok).offset.Read()
			trace(tok, "issues; fetch stalled by reservation token")
		},
	})
	n.AddTransition(&core.Transition{
		Name: "B", Class: classBranch, From: l2, To: end,
		ResIn: []*core.Place{l1}, // un-stall fetch
		Action: func(tok *core.Token) {
			pc = pc + get(tok).offset.Value()
			trace(tok, "resolves: pc = pc + %d = %d", get(tok).offset.Value(), pc)
		},
	})

	// --- LoadStore sub-net: data-dependent memory delay ------------------
	n.AddTransition(&core.Transition{
		Name: "Dls", Class: classLoadStore, From: l1, To: l2,
		Guard: func(tok *core.Token) bool {
			t := get(tok)
			if !t.addr.CanRead() {
				return false
			}
			if t.load {
				return t.r.CanWrite()
			}
			return t.r.CanRead()
		},
		Action: func(tok *core.Token) {
			t := get(tok)
			t.addr.Read()
			if t.load {
				t.r.ReserveWrite()
			} else {
				t.r.Read()
			}
			trace(tok, "issues")
		},
	})
	n.AddTransition(&core.Transition{
		Name: "M", Class: classLoadStore, From: l2, To: l4,
		Action: func(tok *core.Token) {
			t := get(tok)
			a := t.addr.Value()
			if t.load {
				t.r.SetValue(mem.words[a])
			} else {
				mem.words[a] = t.r.Value()
			}
			tok.Delay = mem.delay(a) // the paper's t.delay = mem.delay(addr)
			trace(tok, "memory access @%d (delay %d)", a, tok.Delay)
		},
	})
	n.AddTransition(&core.Transition{
		Name: "Wm", Class: classLoadStore, From: l4, To: end,
		Action: func(tok *core.Token) {
			t := get(tok)
			if t.load {
				t.r.Writeback()
			}
			trace(tok, "completes")
		},
	})

	// --- Instruction-independent sub-net: fetch --------------------------
	// Retired tokens refill the pool buildProgram drew from (the
	// allocation-free steady-state idiom; a no-op for this one-shot program).
	n.OnRetire(pool.Put)
	program := buildProgram(regs)
	next := 0
	n.AddSource(&core.Source{
		Name: "F", To: l1,
		Guard: func() bool { return next < len(program) },
		Fire: func() *core.Token {
			in := program[next]
			next++
			fmt.Printf("  cycle %2d: %-6s fetched\n", n.CycleCount(), in.name)
			return in.tok
		},
	})

	n.MustBuild()

	fmt.Println("RCPN model of the paper's Figure 4/5 out-of-order-completion processor")
	fmt.Print("two-list places (auto-detected from the feedback arc):")
	for _, p := range n.TwoListPlaces() {
		fmt.Printf(" %s", p.Name)
	}
	fmt.Println("\nsimulating:")
	if _, err := n.Run(func() bool { return n.RetiredCount == uint64(len(program)) }, 200); err != nil {
		panic(err)
	}

	fmt.Printf("\n%d instructions in %d cycles (CPI %.2f)\n",
		n.RetiredCount, n.CycleCount(), float64(n.CycleCount())/float64(n.RetiredCount))
	for i, r := range regs {
		fmt.Printf("r%d=%-6d ", i, r.Value())
	}
	fmt.Printf("pc=%d, mem[28]=%d\n", pc, mem.words[28])
	fmt.Println("\nfeedback-path issue count (Dfwd fires):", transitionFires(n, "Dfwd"))
}

func transitionFires(n *core.Net, name string) uint64 {
	for _, t := range n.Transitions() {
		if t.Name == name {
			return t.Fires
		}
	}
	return 0
}

// buildProgram decodes a little program into operand-wired instructions —
// the per-instance customization the paper performs at decode.
func buildProgram(regs []*reg.Register) []*instr {
	add := func(a, b uint32) uint32 { return a + b }
	mul := func(a, b uint32) uint32 { return a * b }

	mk := func(class core.ClassID, in *instr) *instr {
		in.tok = pool.Get(class, in)
		return in
	}
	alu := func(name string, op func(a, b uint32) uint32, d int, s1 int, s2 reg.Operand) *instr {
		in := &instr{name: name, op: op}
		in = mk(classALU, in)
		in.d = reg.NewRef(regs[d], in)
		in.s1 = reg.NewRef(regs[s1], in)
		in.s2 = s2
		return in
	}
	ref := func(in *instr, r int) reg.Operand { return reg.NewRef(regs[r], in) }

	// i0: r1 = r0 + 7        (register-file issue)
	// i1: r2 = r1 * 3        (s1 bypassed from L3 — back-to-back dependency)
	// i2: r3 = r2 + 1        (bypass again)
	// i3: store r3 -> [28]   (waits for r3; address 28 is a "miss")
	// i4: branch +8          (stalls fetch one cycle via reservation token)
	// i5: load r4 <- [28]    (data-dependent 5-cycle delay, out-of-order completion)
	// i6: r5 = r0 + 2        (independent; completes before the load — out of order)
	i0 := alu("i0:add", add, 1, 0, reg.NewConst(7))
	i1 := alu("i1:mul", mul, 2, 1, reg.NewConst(3))
	i2 := alu("i2:add", add, 3, 2, reg.NewConst(1))

	i3 := mk(classLoadStore, &instr{name: "i3:st", load: false})
	i3.r = ref(i3, 3)
	i3.addr = reg.NewConst(28)

	i4 := mk(classBranch, &instr{name: "i4:br"})
	i4.offset = reg.NewConst(8)

	i5 := mk(classLoadStore, &instr{name: "i5:ld", load: true})
	i5.r = ref(i5, 4)
	i5.addr = reg.NewConst(28)

	i6 := alu("i6:add", add, 5, 0, reg.NewConst(2))

	return []*instr{i0, i1, i2, i3, i4, i5, i6}
}
