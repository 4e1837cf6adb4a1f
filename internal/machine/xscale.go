package machine

import (
	"rcpn/internal/arm"
	"rcpn/internal/bpred"
	"rcpn/internal/core"
	"rcpn/internal/mem"
	"rcpn/internal/obsv"
)

// XScaleUnits supplies the XScale model's non-pipeline units (32KB I/D
// caches, a 128-entry bimodal predictor) where c leaves them unset.
func XScaleUnits(c *Config) {
	if c.Caches.I == nil {
		c.Caches = mem.DefaultXScale()
	}
	if c.Predictor == nil {
		c.Predictor = bpred.NewBimodal(128)
	}
}

// NewXScale builds the XScale (PXA250) model of Fig. 9: an in-order-issue,
// out-of-order-completion processor with a seven-stage main pipeline and two
// parallel back ends —
//
//	F1 -> F2 -> ID -> RF -> X1 -> X2 -> XWB   (main/ALU pipe)
//	                   \-> D1 -> D2 -> DWB    (memory pipe)
//	                   \-> M1 -> M2 -> MWB    (MAC pipe)
//
// ALU results can complete while older loads are still in the memory pipe;
// the register-reference lock interface (reg package) carries all the
// resulting data hazards, exactly as in §3.1. Default non-pipeline units:
// 32KB I/D caches and a bimodal predictor with BTB (the XScale core has
// dynamic branch prediction).
func NewXScale(p *arm.Program, cfg Config) *Machine {
	m := newMachine("xscale", p, cfg, XScaleUnits)

	n := core.NewNet(int(arm.NumClasses))
	f1 := n.Place("F1", n.Stage("F1", 1))
	f2 := n.Place("F2", n.Stage("F2", 1))
	id := n.Place("ID", n.Stage("ID", 1))
	rf := n.Place("RF", n.Stage("RF", 1))
	x1 := n.Place("X1", n.Stage("X1", 1))
	x2 := n.Place("X2", n.Stage("X2", 1))
	d1 := n.Place("D1", n.Stage("D1", 1))
	d2 := n.Place("D2", n.Stage("D2", 1))
	m1 := n.Place("M1", n.Stage("M1", 1))
	m2 := n.Place("M2", n.Stage("M2", 1))
	end := n.EndPlace("end")

	// Forwarding: ALU results from X2, load results and MAC results as they
	// reach the last stage of their pipes.
	bypass := []int{x2.ID(), d2.ID(), m2.ID()}

	inst := func(tok *core.Token) *Inst { return tok.Data.(*Inst) }

	// Instruction-independent front end: F1 -> F2 -> ID advance for every
	// class (AnyClass transitions, the shared part of the sub-nets).
	n.AddTransition(&core.Transition{Name: "f2", Class: core.AnyClass, From: f1, To: f2})
	n.AddTransition(&core.Transition{Name: "id", Class: core.AnyClass, From: f2, To: id})
	n.AddTransition(&core.Transition{Name: "rf", Class: core.AnyClass, From: id, To: rf})

	issueTo := func(c arm.Class, to *core.Place, extra func(*Inst, *core.Token)) {
		n.AddTransition(&core.Transition{
			Name: c.String() + ".issue", Class: core.ClassID(c), From: rf, To: to,
			Guard:   func(tok *core.Token) bool { return inst(tok).IssueReady(bypass) },
			Explain: func(tok *core.Token) obsv.StallKind { return inst(tok).IssueStallKind(bypass) },
			Action: func(tok *core.Token) {
				in := inst(tok)
				in.Issue(bypass)
				if extra != nil {
					extra(in, tok)
				}
			},
		})
	}

	// ALU pipe: DataProc, Branch and System flow through X1/X2.
	for _, c := range []arm.Class{arm.ClassDataProc, arm.ClassBranch, arm.ClassSystem} {
		c := c
		issueTo(c, x1, nil)
		n.AddTransition(&core.Transition{
			Name: c.String() + ".x2", Class: core.ClassID(c), From: x1, To: x2,
			Action: func(tok *core.Token) { inst(tok).Execute() },
		})
		n.AddTransition(&core.Transition{
			Name: c.String() + ".xwb", Class: core.ClassID(c), From: x2, To: end,
			Action: func(tok *core.Token) { inst(tok).Writeback() },
		})
	}

	// Memory pipe: LoadStore and LoadStoreM flow through D1/D2.
	for _, c := range []arm.Class{arm.ClassLoadStore, arm.ClassLoadStoreM} {
		c := c
		issueTo(c, d1, nil)
		n.AddTransition(&core.Transition{
			Name: c.String() + ".d2", Class: core.ClassID(c), From: d1, To: d2,
			Action: func(tok *core.Token) {
				in := inst(tok)
				in.Execute()
				tok.Delay = in.MemLatency()
			},
		})
		if c == arm.ClassLoadStore {
			n.AddTransition(&core.Transition{
				Name: c.String() + ".dwb", Class: core.ClassID(c), From: d2, To: end,
				Action: func(tok *core.Token) {
					in := inst(tok)
					in.MemAccess()
					in.Writeback()
				},
			})
		} else {
			n.AddTransition(&core.Transition{
				Name: c.String() + ".dstep", Class: core.ClassID(c), From: d2, To: d2, Priority: 0,
				Guard:  func(tok *core.Token) bool { return inst(tok).LSMMore() },
				Action: func(tok *core.Token) { tok.Delay = inst(tok).LSMStep() },
			})
			n.AddTransition(&core.Transition{
				Name: c.String() + ".dwb", Class: core.ClassID(c), From: d2, To: end, Priority: 1,
				Action: func(tok *core.Token) {
					in := inst(tok)
					in.LSMFinish()
					in.Writeback()
				},
			})
		}
	}

	// MAC pipe: multiplies, with data-dependent early termination occupying
	// M1 (the XScale MAC takes 2-5 cycles depending on the multiplier).
	issueTo(arm.ClassMult, m1, func(in *Inst, tok *core.Token) {
		if !in.annulled {
			tok.Delay = 1 + in.MulLatency()
		}
	})
	n.AddTransition(&core.Transition{
		Name: "Mult.m2", Class: core.ClassID(arm.ClassMult), From: m1, To: m2,
		Action: func(tok *core.Token) { inst(tok).Execute() },
	})
	n.AddTransition(&core.Transition{
		Name: "Mult.mwb", Class: core.ClassID(arm.ClassMult), From: m2, To: end,
		Action: func(tok *core.Token) { inst(tok).Writeback() },
	})

	n.AddSource(&core.Source{Name: "fetch", To: f1, Fire: m.fetchOne})
	n.OnRetire(m.retire)

	m.Net = n
	m.applyAblation()
	n.MustBuild()
	return m
}
