package machine

import (
	"fmt"

	"rcpn/internal/arm"
	"rcpn/internal/bpred"
	"rcpn/internal/core"
	"rcpn/internal/mem"
	"rcpn/internal/obsv"
)

// This file is the declarative model-description layer: a processor is
// written down as a Spec — stages, the shared front end, one route per
// operation class, bypass points — and Generate lowers it to the RCPN the
// engine executes. This is the paper's pitch made concrete: the description
// mirrors the pipeline block diagram, and the cycle-accurate simulator is
// *generated* from it. Every RCPN ARM model in the repository — StrongARMSpec,
// XScaleSpec and ARM9Spec — is built this way.

// Role names the work performed when an instruction leaves a stage.
type Role uint8

// Stage-exit roles.
const (
	// RolePass moves the instruction along with no architected work
	// (fetch buffers, extra decode stages).
	RolePass Role = iota
	// RoleIssue reads source operands (with bypass) and reserves
	// destinations; multiplies acquire their data-dependent latency here.
	RoleIssue
	// RoleExecute computes results, resolves branches/PC writes, computes
	// effective addresses and acquires cache latencies.
	RoleExecute
	// RoleMem performs the functional memory access; block transfers stay
	// in the stage moving one register per cycle.
	RoleMem
	// RoleWriteback commits results to architected state (and performs
	// trap effects). The instruction retires afterwards.
	RoleWriteback
	// RoleMemWriteback fuses the memory access and the writeback into one
	// stage exit — the shape of a memory pipe that retires directly from
	// its last stage (XScale's DWB).
	RoleMemWriteback
)

var roleNames = [...]string{"pass", "issue", "execute", "mem", "wb", "memwb"}

func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// StageSpec declares one pipeline storage element.
type StageSpec struct {
	Name     string
	Capacity int   // 0 -> 1
	Delay    int64 // residency delay; 0 -> 1
}

// Seg is one step of a route: the stage an instruction sits in and the role
// performed when it leaves.
type Seg struct {
	Stage string
	Exit  Role
}

// Spec is a declarative pipelined-processor description.
type Spec struct {
	Name   string
	Stages []StageSpec
	// FrontEnd lists the shared stages every instruction traverses, in
	// order; the first receives fetched tokens. Exits are RolePass except
	// that the *route* of each class begins at the last front-end stage.
	FrontEnd []string
	// Routes gives each operation class its back-end path, starting from
	// the last front-end stage. The final Seg's Exit must be RoleWriteback
	// (its destination is the virtual end place).
	Routes map[arm.Class][]Seg
	// Bypass names the stages whose resident results feed the forwarding
	// network (RegRef.CanReadIn states).
	Bypass []string
	// MACExtra adds fixed cycles to every multiply's issue latency (a
	// deeper multiplier pipeline, e.g. the XScale MAC).
	MACExtra int64
}

// Generate lowers a Spec to a runnable Machine. The produced net has one
// place per declared stage and one transition per route segment, with the
// operation-class semantics of ops.go wired in by role.
func Generate(p *arm.Program, spec Spec, cfg Config) (*Machine, error) {
	m := newMachine(spec.Name, p, cfg, StrongARMUnits)

	n := core.NewNet(int(arm.NumClasses))
	places := map[string]*core.Place{}
	for _, ss := range spec.Stages {
		if _, dup := places[ss.Name]; dup {
			return nil, fmt.Errorf("adl: duplicate stage %q", ss.Name)
		}
		cap := ss.Capacity
		if cap <= 0 {
			cap = 1
		}
		pl := n.Place(ss.Name, n.Stage(ss.Name, cap))
		if ss.Delay > 0 {
			pl.Delay = ss.Delay
		}
		places[ss.Name] = pl
	}
	end := n.EndPlace("end")

	lookup := func(name string) (*core.Place, error) {
		pl, ok := places[name]
		if !ok {
			return nil, fmt.Errorf("adl: unknown stage %q", name)
		}
		return pl, nil
	}

	if len(spec.FrontEnd) == 0 {
		return nil, fmt.Errorf("adl: a front end stage is required")
	}
	var bypass []int
	for _, name := range spec.Bypass {
		pl, err := lookup(name)
		if err != nil {
			return nil, err
		}
		bypass = append(bypass, pl.ID())
	}

	// Shared front end: AnyClass pass transitions between successive stages.
	for i := 0; i+1 < len(spec.FrontEnd); i++ {
		from, err := lookup(spec.FrontEnd[i])
		if err != nil {
			return nil, err
		}
		to, err := lookup(spec.FrontEnd[i+1])
		if err != nil {
			return nil, err
		}
		n.AddTransition(&core.Transition{
			Name: "fe." + spec.FrontEnd[i+1], Class: core.AnyClass, From: from, To: to,
		})
	}
	routeStart, err := lookup(spec.FrontEnd[len(spec.FrontEnd)-1])
	if err != nil {
		return nil, err
	}

	for c := arm.Class(0); c < arm.NumClasses; c++ {
		route, ok := spec.Routes[c]
		if !ok || len(route) == 0 {
			return nil, fmt.Errorf("adl: class %v has no route", c)
		}
		if last := route[len(route)-1].Exit; last != RoleWriteback && last != RoleMemWriteback {
			return nil, fmt.Errorf("adl: class %v route must end with a writeback", c)
		}
		from := routeStart
		for si, seg := range route {
			segStage, err := lookup(seg.Stage)
			if err != nil {
				return nil, err
			}
			if si == 0 && segStage != routeStart {
				return nil, fmt.Errorf("adl: class %v route must start at %s", c, routeStart.Name)
			}
			if si > 0 && segStage != from {
				return nil, fmt.Errorf("adl: class %v route is not contiguous at %s", c, seg.Stage)
			}
			to := end
			if si+1 < len(route) {
				if to, err = lookup(route[si+1].Stage); err != nil {
					return nil, err
				}
			}
			name := fmt.Sprintf("%s.%s.%s", c, seg.Stage, seg.Exit)
			if err := addRoleTransition(n, name, c, seg.Exit, segStage, to, bypass, spec.MACExtra); err != nil {
				return nil, err
			}
			from = to
		}
	}

	n.AddSource(&core.Source{Name: "fetch", To: places[spec.FrontEnd[0]], Fire: m.fetchOne})
	n.OnRetire(m.retire)
	m.Net = n
	m.applyAblation()
	if err := n.Build(); err != nil {
		return nil, err
	}
	return m, nil
}

// StrongARMUnits supplies StrongARM-class non-pipeline units (16KB I/D
// caches, static not-taken branches) where c leaves them unset: the
// defaults of every Spec-generated model.
func StrongARMUnits(c *Config) {
	if c.Caches.I == nil {
		c.Caches = mem.DefaultStrongARM()
	}
	if c.Predictor == nil {
		c.Predictor = bpred.NewNotTaken()
	}
}

// XScaleUnits supplies the XScale model's non-pipeline units (32KB I/D
// caches, a 128-entry bimodal predictor with BTB) where c leaves them unset.
func XScaleUnits(c *Config) {
	if c.Caches.I == nil {
		c.Caches = mem.DefaultXScale()
	}
	if c.Predictor == nil {
		c.Predictor = bpred.NewBimodal(128)
	}
}

// instOf returns the instruction instance a token carries.
func instOf(tok *core.Token) *Inst { return tok.Data.(*Inst) }

// addRoleTransition wires one route segment to the operation-class
// semantics, including the class-specific specials (multiplier latency at
// issue, cache latency at execute, block-transfer stay loop at mem).
func addRoleTransition(n *core.Net, name string, c arm.Class, role Role,
	from, to *core.Place, bypass []int, macExtra int64) error {
	class := core.ClassID(c)
	switch role {
	case RolePass:
		n.AddTransition(&core.Transition{Name: name, Class: class, From: from, To: to})

	case RoleIssue:
		t := &core.Transition{
			Name: name, Class: class, From: from, To: to,
			Guard:   func(tok *core.Token) bool { return instOf(tok).IssueReady(bypass) },
			Explain: func(tok *core.Token) obsv.StallKind { return instOf(tok).IssueStallKind(bypass) },
			Action:  func(tok *core.Token) { instOf(tok).Issue(bypass) },
		}
		if c == arm.ClassMult {
			t.Action = func(tok *core.Token) {
				in := instOf(tok)
				in.Issue(bypass)
				if !in.annulled {
					tok.Delay = macExtra + in.MulLatency()
				}
			}
		}
		n.AddTransition(t)

	case RoleExecute:
		t := &core.Transition{
			Name: name, Class: class, From: from, To: to,
			Action: func(tok *core.Token) { instOf(tok).Execute() },
		}
		if c == arm.ClassLoadStore || c == arm.ClassLoadStoreM {
			t.Action = func(tok *core.Token) {
				in := instOf(tok)
				in.Execute()
				tok.Delay = in.MemLatency()
			}
		}
		n.AddTransition(t)

	case RoleMem:
		switch c {
		case arm.ClassLoadStore:
			n.AddTransition(&core.Transition{
				Name: name, Class: class, From: from, To: to,
				Action: func(tok *core.Token) { instOf(tok).MemAccess() },
			})
		case arm.ClassLoadStoreM:
			n.AddTransition(&core.Transition{
				Name: name + "step", Class: class, From: from, To: from, Priority: 0,
				Guard:  func(tok *core.Token) bool { return instOf(tok).LSMMore() },
				Action: func(tok *core.Token) { tok.Delay = instOf(tok).LSMStep() },
			})
			n.AddTransition(&core.Transition{
				Name: name + "last", Class: class, From: from, To: to, Priority: 1,
				Action: func(tok *core.Token) { instOf(tok).LSMFinish() },
			})
		default:
			n.AddTransition(&core.Transition{Name: name, Class: class, From: from, To: to})
		}

	case RoleWriteback:
		n.AddTransition(&core.Transition{
			Name: name, Class: class, From: from, To: to,
			Action: func(tok *core.Token) { instOf(tok).Writeback() },
		})

	case RoleMemWriteback:
		switch c {
		case arm.ClassLoadStore:
			n.AddTransition(&core.Transition{
				Name: name, Class: class, From: from, To: to,
				Action: func(tok *core.Token) {
					in := instOf(tok)
					in.MemAccess()
					in.Writeback()
				},
			})
		case arm.ClassLoadStoreM:
			n.AddTransition(&core.Transition{
				Name: name + "step", Class: class, From: from, To: from, Priority: 0,
				Guard:  func(tok *core.Token) bool { return instOf(tok).LSMMore() },
				Action: func(tok *core.Token) { tok.Delay = instOf(tok).LSMStep() },
			})
			n.AddTransition(&core.Transition{
				Name: name + "last", Class: class, From: from, To: to, Priority: 1,
				Action: func(tok *core.Token) {
					in := instOf(tok)
					in.LSMFinish()
					in.Writeback()
				},
			})
		default:
			n.AddTransition(&core.Transition{
				Name: name, Class: class, From: from, To: to,
				Action: func(tok *core.Token) { instOf(tok).Writeback() },
			})
		}

	default:
		return fmt.Errorf("adl: unknown role %v", role)
	}
	return nil
}
