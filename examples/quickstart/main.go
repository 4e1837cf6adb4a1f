// Quickstart: build the paper's Figure 2 pipeline as an RCPN in a few
// lines, run tokens through it, and print a cycle-by-cycle trace.
//
// The pipeline has two latches (L1, L2) and four units; instructions of
// class "long" flow L1 -> U2 -> L2 -> U3 -> end, instructions of class
// "short" take the bypass L1 -> U4 -> end. In the RCPN there are no
// back-edge capacity loops: a transition is simply enabled only while its
// destination stage has room.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"rcpn/internal/core"
)

func main() {
	const (
		classLong  = 0
		classShort = 1
	)

	n := core.NewNet(2)
	l1 := n.Place("L1", n.Stage("L1", 1))
	l2 := n.Place("L2", n.Stage("L2", 1))
	end := n.EndPlace("end")

	n.AddTransition(&core.Transition{
		Name: "U2", Class: classLong, From: l1, To: l2,
		Action: func(tok *core.Token) {
			fmt.Printf("  cycle %2d: U2 executes instruction %v (L1 -> L2)\n",
				n.CycleCount(), tok.Data)
		},
	})
	n.AddTransition(&core.Transition{
		Name: "U3", Class: classLong, From: l2, To: end,
		Action: func(tok *core.Token) {
			fmt.Printf("  cycle %2d: U3 finishes instruction %v\n", n.CycleCount(), tok.Data)
		},
	})
	n.AddTransition(&core.Transition{
		Name: "U4", Class: classShort, From: l1, To: end,
		Action: func(tok *core.Token) {
			fmt.Printf("  cycle %2d: U4 finishes instruction %v (short path)\n",
				n.CycleCount(), tok.Data)
		},
	})

	// The instruction-independent sub-net: U1 generates instruction tokens
	// while L1 has capacity. Tokens come from a free-list pool refilled by
	// the retire callback, so a long-running model allocates only as many
	// tokens as are ever simultaneously in flight.
	var pool core.TokenArena
	n.OnRetire(pool.Put)
	program := []core.ClassID{classLong, classShort, classLong, classLong, classShort}
	next := 0
	n.AddSource(&core.Source{
		Name: "U1", To: l1,
		Guard: func() bool { return next < len(program) },
		Fire: func() *core.Token {
			tok := pool.Get(program[next], fmt.Sprintf("i%d", next))
			fmt.Printf("  cycle %2d: U1 fetches i%d\n", n.CycleCount(), next)
			next++
			return tok
		},
	})

	n.MustBuild()

	fmt.Println("RCPN model of the paper's Figure 2 pipeline")
	fmt.Printf("places: %d, transitions: %d, evaluation order:", len(n.Places()), len(n.Transitions()))
	for _, p := range n.Order() {
		fmt.Printf(" %s", p.Name)
	}
	fmt.Println()
	fmt.Println("simulating:")

	if _, err := n.Run(func() bool { return n.RetiredCount == uint64(len(program)) }, 100); err != nil {
		panic(err)
	}
	fmt.Printf("done: %d instructions retired in %d cycles (%d Token values allocated)\n",
		n.RetiredCount, n.CycleCount(), pool.Allocated())

	fmt.Println("\nGraphviz rendering of the model (paste into dot):")
	fmt.Println(n.Dot([]string{"long", "short"}))
}
