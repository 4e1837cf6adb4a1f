// Command rcpndot renders the RCPN of a processor model as a Graphviz
// digraph — the "mirror image of the processor pipeline block diagram" view
// the paper emphasizes — together with a short structural report (places,
// transitions, evaluation order, two-list places).
//
// Usage:
//
//	rcpndot [-model strongarm|xscale|arm9] [-report]
//
// -model takes any registry engine (internal/diffrun) that is an
// interpreted RCPN machine.
package main

import (
	"flag"
	"fmt"
	"os"

	"rcpn/internal/arm"
	"rcpn/internal/diffrun"
	"rcpn/internal/machine"
)

func main() {
	model := flag.String("model", "strongarm", "processor model: strongarm, xscale, arm9")
	report := flag.Bool("report", false, "print a structural report instead of DOT")
	flag.Parse()

	// Any loadable program works; the net structure is program independent.
	p, err := arm.Assemble("swi #0\n", 0x8000)
	if err != nil {
		fail(err)
	}
	engine, ok := diffrun.Lookup(*model)
	if !ok {
		fail(fmt.Errorf("unknown model %q", *model))
	}
	st, _, err := engine.Build(p)
	if err != nil {
		fail(err)
	}
	m, ok := st.(*machine.Machine)
	if !ok || m.Net == nil {
		fail(fmt.Errorf("model %q is not an interpreted RCPN machine", *model))
	}

	if !*report {
		fmt.Print(m.Dot())
		return
	}
	n := m.Net
	fmt.Printf("model: %s\n", m.Name)
	fmt.Printf("places (%d):", len(n.Places()))
	for _, pl := range n.Places() {
		cap := fmt.Sprintf("%d", pl.Stage.Capacity)
		if pl.Stage.Unlimited() {
			cap = "inf"
		}
		fmt.Printf(" %s[%s]", pl.Name, cap)
	}
	fmt.Printf("\ntransitions (%d):", len(n.Transitions()))
	for _, t := range n.Transitions() {
		fmt.Printf(" %s", t.Name)
	}
	fmt.Printf("\nevaluation order:")
	for _, pl := range n.Order() {
		fmt.Printf(" %s", pl.Name)
	}
	fmt.Printf("\ntwo-list places:")
	if len(n.TwoListPlaces()) == 0 {
		fmt.Printf(" (none — reverse topological order suffices)")
	}
	for _, pl := range n.TwoListPlaces() {
		fmt.Printf(" %s", pl.Name)
	}
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rcpndot:", err)
	os.Exit(1)
}
