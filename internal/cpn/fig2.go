package cpn

import "rcpn/internal/core"

// Fig2 builds the paper's Figure 2 pipeline as an RCPN: places L1 and L2
// (capacity 1 each), two instruction classes — class 0 flowing
// L1->U2->L2->U3->end and class 1 taking the short path L1->U4->end — and a
// fetch source U1 that fires while fewer than *limit tokens have been made,
// so raising *limit feeds a running net more. It returns the net and its
// end place; Convert's Mapping.PlaceOf gives the converted end place.
//
// Tokens come from a pool and retire back into it, so a steady-state run
// allocates nothing. They carry no payload: boxing a counter into
// Token.Data would allocate per token.
func Fig2(limit *int) (*core.Net, *core.Place) {
	var pool core.TokenArena
	n := core.NewNet(2)
	l1 := n.Place("L1", n.Stage("L1", 1))
	l2 := n.Place("L2", n.Stage("L2", 1))
	end := n.EndPlace("end")
	n.AddTransition(&core.Transition{Name: "U2", Class: 0, From: l1, To: l2})
	n.AddTransition(&core.Transition{Name: "U3", Class: 0, From: l2, To: end})
	n.AddTransition(&core.Transition{Name: "U4", Class: 1, From: l1, To: end})
	made := 0
	n.AddSource(&core.Source{
		Name: "U1", To: l1,
		Guard: func() bool { return made < *limit },
		Fire:  func() *core.Token { made++; return pool.Get(core.ClassID(made%2), nil) },
	})
	n.OnRetire(pool.Put)
	n.MustBuild()
	return n, end
}
