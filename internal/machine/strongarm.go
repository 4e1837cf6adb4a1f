package machine

import (
	"rcpn/internal/arm"
	"rcpn/internal/core"
	"rcpn/internal/obsv"
)

// NewStrongARM builds the StrongARM (SA-110) model of the paper's
// evaluation: a simple five-stage pipeline
//
//	Fetch -> Decode/Issue -> Execute -> Memory -> Writeback
//
// modeled as one RCPN place per pipeline latch (FD, EX, ME, WB) plus the
// virtual end place, with one sub-net per ARM operation class — "there are
// six RCPN sub-nets in the StrongArm model" (§5). Default non-pipeline
// units: 16KB I/D caches, static not-taken branch handling (the SA-110 has
// no branch predictor, so every taken branch pays the two-cycle refetch).
func NewStrongARM(p *arm.Program, cfg Config) *Machine {
	m := newMachine("strongarm", p, cfg, StrongARMUnits)

	n := core.NewNet(int(arm.NumClasses))
	fd := n.Place("FD", n.Stage("FD", 1)) // fetch latch
	ex := n.Place("EX", n.Stage("EX", 1))
	me := n.Place("ME", n.Stage("ME", 1))
	wb := n.Place("WB", n.Stage("WB", 1))
	end := n.EndPlace("end")

	// The bypass network: results are forwardable from the ME and WB
	// latches (ALU results enter ME, load results enter WB), expressed with
	// the paper's CanReadIn/ReadIn states.
	bypass := []int{me.ID(), wb.ID()}

	inst := func(tok *core.Token) *Inst { return tok.Data.(*Inst) }

	for c := arm.Class(0); c < arm.NumClasses; c++ {
		class := core.ClassID(c)
		name := c.String()

		issue := &core.Transition{
			Name: name + ".issue", Class: class, From: fd, To: ex,
			Guard:   func(tok *core.Token) bool { return inst(tok).IssueReady(bypass) },
			Explain: func(tok *core.Token) obsv.StallKind { return inst(tok).IssueStallKind(bypass) },
			Action:  func(tok *core.Token) { inst(tok).Issue(bypass) },
		}
		if c == arm.ClassMult {
			// The multiplier occupies EX for a data-dependent number of
			// cycles (early termination).
			issue.Action = func(tok *core.Token) {
				in := inst(tok)
				in.Issue(bypass)
				if !in.annulled {
					tok.Delay = in.MulLatency()
				}
			}
		}
		n.AddTransition(issue)

		execute := &core.Transition{
			Name: name + ".execute", Class: class, From: ex, To: me,
			Action: func(tok *core.Token) { inst(tok).Execute() },
		}
		if c == arm.ClassLoadStore || c == arm.ClassLoadStoreM {
			execute.Action = func(tok *core.Token) {
				in := inst(tok)
				in.Execute()
				tok.Delay = in.MemLatency() // "t.delay = mem.delay(addr)"
			}
		}
		n.AddTransition(execute)

		switch c {
		case arm.ClassLoadStore:
			n.AddTransition(&core.Transition{
				Name: name + ".mem", Class: class, From: me, To: wb,
				Action: func(tok *core.Token) { inst(tok).MemAccess() },
			})
		case arm.ClassLoadStoreM:
			// Block transfers stay in ME, moving one register per step
			// (footnote 1 of the paper), then leave through .memlast.
			n.AddTransition(&core.Transition{
				Name: name + ".memstep", Class: class, From: me, To: me, Priority: 0,
				Guard:  func(tok *core.Token) bool { return inst(tok).LSMMore() },
				Action: func(tok *core.Token) { tok.Delay = inst(tok).LSMStep() },
			})
			n.AddTransition(&core.Transition{
				Name: name + ".memlast", Class: class, From: me, To: wb, Priority: 1,
				Action: func(tok *core.Token) { inst(tok).LSMFinish() },
			})
		default:
			n.AddTransition(&core.Transition{
				Name: name + ".mem", Class: class, From: me, To: wb,
			})
		}

		n.AddTransition(&core.Transition{
			Name: name + ".wb", Class: class, From: wb, To: end,
			Action: func(tok *core.Token) { inst(tok).Writeback() },
		})
	}

	n.AddSource(&core.Source{Name: "fetch", To: fd, Fire: m.fetchOne})
	n.OnRetire(m.retire)

	m.Net = n
	m.applyAblation()
	n.MustBuild()
	return m
}
