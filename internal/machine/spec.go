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

// Body names the work one lowered transition performs when it fires. The
// lowering decides it once per transition (bodyOf) and records it, so the
// closures the engine runs and the code the generator emits are both read
// off the same decision.
type Body uint8

// Transition bodies.
const (
	BodyPass             Body = iota // move only, no architected work
	BodyIssue                        // operand read + destination reservation
	BodyIssueMult                    // issue + data-dependent multiplier latency
	BodyExecute                      // ALU work, branch/PC resolution
	BodyExecuteMem                   // execute + D-cache latency acquisition
	BodyMemAccess                    // functional memory access
	BodyLSMStep                      // block-transfer stay loop (self-loop)
	BodyLSMLast                      // block-transfer completion
	BodyWriteback                    // architected commit (+ trap effects)
	BodyMemWriteback                 // fused memory access + writeback
	BodyLSMLastWriteback             // fused block-transfer completion + writeback
)

var bodyNames = [...]string{"pass", "issue", "issue-mult", "execute", "execute-mem",
	"mem-access", "lsm-step", "lsm-last", "writeback", "mem-writeback", "lsm-last-writeback"}

func (b Body) String() string {
	if int(b) < len(bodyNames) {
		return bodyNames[b]
	}
	return fmt.Sprintf("body(%d)", uint8(b))
}

// Explained reports whether a transition performing b has an Explain, and
// so a guard that names its stall kind: the issues' operand check.
func (b Body) Explained() bool { return b == BodyIssue || b == BodyIssueMult }

// Guarded reports whether a transition performing b has a Guard: the
// issues' operand check or a block-transfer step's "registers remain".
func (b Body) Guarded() bool { return b.Explained() || b == BodyLSMStep }

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
	// Units fills each non-pipeline unit a run's Config leaves unset with
	// the model's default (StrongARMUnits, XScaleUnits); nil leaves them
	// unset, so the model runs without caches or a predictor.
	Units func(*Config)
}

// Generate lowers a Spec to a runnable Machine. The produced net has one
// place per declared stage and one transition per route segment, with the
// operation-class semantics of ops.go wired in by role.
func Generate(p *arm.Program, spec Spec, cfg Config) (*Machine, error) {
	m := newMachine(spec.Name, p, cfg, spec.Units)

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
	for _, name := range spec.Bypass {
		pl, err := lookup(name)
		if err != nil {
			return nil, err
		}
		m.bypass = append(m.bypass, pl.ID())
	}
	// add appends one transition performing body and records the body under
	// the transition's id.
	add := func(name string, class core.ClassID, body Body, from, to *core.Place, priority int) {
		t := bodyTransition(body, m.bypass, spec.MACExtra)
		t.Name, t.Class, t.From, t.To, t.Priority = name, class, from, to, priority
		n.AddTransition(t)
		m.bodies = append(m.bodies, body)
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
		add("fe."+spec.FrontEnd[i+1], core.AnyClass, BodyPass, from, to, 0)
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
			body, err := bodyOf(c, seg.Exit)
			if err != nil {
				return nil, err
			}
			name, priority := fmt.Sprintf("%s.%s.%s", c, seg.Stage, seg.Exit), 0
			if body == BodyLSMLast || body == BodyLSMLastWriteback {
				// A block transfer stays in the stage, moving one register
				// per step while any is left; the lower-priority completion
				// then moves it on.
				add(name+"step", core.ClassID(c), BodyLSMStep, segStage, segStage, 0)
				name, priority = name+"last", 1
			}
			add(name, core.ClassID(c), body, segStage, to, priority)
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
// caches, static not-taken branches) for each unit c leaves unset: the
// units of StrongARMSpec and ARM9Spec.
func StrongARMUnits(c *Config) {
	c.Caches = c.Caches.Fill(mem.DefaultStrongARM)
	if c.Predictor == nil {
		c.Predictor = bpred.NewNotTaken()
	}
}

// XScaleUnits supplies the XScale model's non-pipeline units (32KB I/D
// caches, a 128-entry bimodal predictor with BTB) for each unit c leaves unset.
func XScaleUnits(c *Config) {
	c.Caches = c.Caches.Fill(mem.DefaultXScale)
	if c.Predictor == nil {
		c.Predictor = bpred.NewBimodal(128)
	}
}

// instOf returns the instruction instance a token carries.
func instOf(tok *core.Token) *Inst { return tok.Data.(*Inst) }

// roleBodies is each role's body for a class with no special there.
var roleBodies = [...]Body{RolePass: BodyPass, RoleIssue: BodyIssue, RoleExecute: BodyExecute,
	RoleMem: BodyPass, RoleWriteback: BodyWriteback, RoleMemWriteback: BodyWriteback}

// bodyOf picks the work a class performs when it leaves a stage in role:
// the class-specific specials are the multiplier latency at issue, the
// cache latency at execute and the block-transfer stay loop at mem.
func bodyOf(c arm.Class, role Role) (Body, error) {
	if int(role) >= len(roleBodies) {
		return 0, fmt.Errorf("adl: unknown role %v", role)
	}
	ls, lsm := c == arm.ClassLoadStore, c == arm.ClassLoadStoreM
	switch {
	case role == RoleIssue && c == arm.ClassMult:
		return BodyIssueMult, nil
	case role == RoleExecute && (ls || lsm):
		return BodyExecuteMem, nil
	case role == RoleMem && ls:
		return BodyMemAccess, nil
	case role == RoleMem && lsm:
		return BodyLSMLast, nil
	case role == RoleMemWriteback && ls:
		return BodyMemWriteback, nil
	case role == RoleMemWriteback && lsm:
		return BodyLSMLastWriteback, nil
	}
	return roleBodies[role], nil
}

// bodyTransition builds a transition performing body, its closures
// specialised now so that none switches on the body when it fires. A pass
// keeps a nil Action and only Guarded bodies get a Guard: the engine's
// inline firing tests both.
func bodyTransition(body Body, bypass []int, macExtra int64) *core.Transition {
	t := &core.Transition{}
	switch {
	case body.Explained():
		t.Guard = func(tok *core.Token) bool { return instOf(tok).IssueReady(bypass) }
		t.Explain = func(tok *core.Token) obsv.StallKind { return instOf(tok).IssueStallKind(bypass) }
	case body.Guarded():
		t.Guard = func(tok *core.Token) bool { return instOf(tok).LSMMore() }
	}
	switch body {
	case BodyIssue:
		t.Action = func(tok *core.Token) { instOf(tok).Issue(bypass) }
	case BodyIssueMult:
		t.Action = func(tok *core.Token) {
			in := instOf(tok)
			in.Issue(bypass)
			if !in.annulled {
				tok.Delay = macExtra + in.MulLatency()
			}
		}
	case BodyExecute:
		t.Action = func(tok *core.Token) { instOf(tok).Execute() }
	case BodyExecuteMem:
		t.Action = func(tok *core.Token) {
			in := instOf(tok)
			in.Execute()
			tok.Delay = in.MemLatency()
		}
	case BodyMemAccess:
		t.Action = func(tok *core.Token) { instOf(tok).MemAccess() }
	case BodyLSMStep:
		t.Action = func(tok *core.Token) { tok.Delay = instOf(tok).LSMStep() }
	case BodyLSMLast:
		t.Action = func(tok *core.Token) { instOf(tok).LSMFinish() }
	case BodyWriteback:
		t.Action = func(tok *core.Token) { instOf(tok).Writeback() }
	case BodyMemWriteback:
		t.Action = func(tok *core.Token) {
			in := instOf(tok)
			in.MemAccess()
			in.Writeback()
		}
	case BodyLSMLastWriteback:
		t.Action = func(tok *core.Token) {
			in := instOf(tok)
			in.LSMFinish()
			in.Writeback()
		}
	}
	return t
}
