package gen

import (
	"bytes"
	"fmt"
	"strings"

	"rcpn/internal/arm"
	"rcpn/internal/machine"
)

// The emitter writes the generated package as one Go source file. Output is
// deterministic — stages are walked in place-id order for declarations and
// in the compiled reverse topological order for the step loop, classes in
// class-id order — and is passed through go/format before it leaves
// Generate, so identical inputs produce identical bytes.
//
// Name mangling: each stage name is sanitized to an identifier suffix
// (letters and digits kept, everything else becomes '_'), and every
// generated symbol derives from it by prefix — latch slot l<ident>, ready
// cycle r<ident>, state index st<ident>, step function step<ident>, stall
// classifier classify<ident>, op-id table op<ident><slot>. Collisions after
// sanitization are an analysis error.

type emitter struct {
	buf bytes.Buffer
	m   *model
}

func (e *emitter) f(format string, args ...any) { fmt.Fprintf(&e.buf, format, args...) }

func className(c int) string { return arm.Class(c).String() }

func classLabels(classes []int) string {
	names := make([]string, len(classes))
	for i, c := range classes {
		names[i] = "arm.Class" + className(c)
	}
	return strings.Join(names, ", ")
}

func classList(classes []int) string {
	names := make([]string, len(classes))
	for i, c := range classes {
		names[i] = className(c)
	}
	return strings.Join(names, ", ")
}

// classGroup is a set of classes sharing one emitted body — the
// devirtualized form of per-class dispatch: identical bodies merge, and a
// stage whose classes all behave alike needs no switch at all.
type classGroup struct {
	classes []int
	body    string
}

func groupClasses(bodies []string) []classGroup {
	var gs []classGroup
	idx := map[string]int{}
	for c, b := range bodies {
		if i, ok := idx[b]; ok {
			gs[i].classes = append(gs[i].classes, c)
		} else {
			idx[b] = len(gs)
			gs = append(gs, classGroup{classes: []int{c}, body: b})
		}
	}
	return gs
}

// dispatch emits the per-class dispatch over the given bodies: no switch
// when every class shares one body, otherwise a switch whose largest group
// (ties: earliest class) is the default clause, keeping the switch
// exhaustive without a dead tail.
func (e *emitter) dispatch(bodies []string) {
	gs := groupClasses(bodies)
	if len(gs) == 1 {
		e.f("%s", gs[0].body)
		return
	}
	def := 0
	for i, g := range gs {
		if len(g.classes) > len(gs[def].classes) {
			def = i
		}
	}
	e.f("switch in.I.Class {\n")
	for i, g := range gs {
		if i == def {
			continue
		}
		e.f("case %s:\n%s", classLabels(g.classes), g.body)
	}
	e.f("default: // %s\n%s", classList(gs[def].classes), gs[def].body)
	e.f("}\n")
}

// actionLines inlines the transition's semantic calls. When wantDelay is
// true (the destination is a real latch) the data-dependent kinds also bind
// d, the token-delay override of the interpreted engine's deliver;
// destinations past the end place retire immediately and take no delay.
func (e *emitter) actionLines(b *strings.Builder, body machine.Body, wantDelay bool) (delayVar bool) {
	switch body {
	case machine.BodyPass:
	case machine.BodyIssue:
		b.WriteString("in.Issue(bypassStates)\n")
	case machine.BodyIssueMult:
		b.WriteString("in.Issue(bypassStates)\n")
		if wantDelay {
			b.WriteString("var d int64\nif !in.Annulled() {\n")
			if e.m.macExtra != 0 {
				fmt.Fprintf(b, "d = %d + in.MulLatency()\n", e.m.macExtra)
			} else {
				b.WriteString("d = in.MulLatency()\n")
			}
			b.WriteString("}\n")
			delayVar = true
		}
	case machine.BodyExecute:
		b.WriteString("in.Execute()\n")
	case machine.BodyExecuteMem:
		b.WriteString("in.Execute()\n")
		if wantDelay {
			b.WriteString("d := in.MemLatency()\n")
			delayVar = true
		}
	case machine.BodyMemAccess:
		b.WriteString("in.MemAccess()\n")
	case machine.BodyLSMStep:
		b.WriteString("d := in.LSMStep()\n")
		delayVar = true
	case machine.BodyLSMLast:
		b.WriteString("in.LSMFinish()\n")
	case machine.BodyWriteback:
		b.WriteString("in.Writeback()\n")
	case machine.BodyMemWriteback:
		b.WriteString("in.MemAccess()\nin.Writeback()\n")
	case machine.BodyLSMLastWriteback:
		b.WriteString("in.LSMFinish()\nin.Writeback()\n")
	}
	return delayVar
}

// fireLines emits one transition firing, mirroring the interpreted fire():
// remove from the latch, run the action, deliver (token delay overriding
// the destination's residency delay, minimum one cycle) or retire, with the
// trace events in the engine's exact order.
func (e *emitter) fireLines(st *stageInfo, slot int, cd cand) string {
	var b strings.Builder
	tr := cd.tr
	selfLoop := tr.From == tr.To
	toEnd := tr.To.End
	if !selfLoop {
		fmt.Fprintf(&b, "s.l%s = nil\nin.SetState(-1)\n", st.ident)
	}
	delayVar := e.actionLines(&b, cd.body, !toEnd)
	opRef := fmt.Sprintf("op%s%d[in.I.Class]", st.ident, slot)
	switch {
	case toEnd:
		fmt.Fprintf(&b, "s.fired[st%s] = now\n", st.ident)
		fmt.Fprintf(&b, "if s.trace != nil {\ns.trace.Fire(now, in.Seq, st%s, %s)\ns.trace.Retire(now, in.Seq, st%s)\n}\n",
			st.ident, opRef, st.ident)
		b.WriteString("s.m.GenRetire(in)\n")
	case selfLoop:
		fmt.Fprintf(&b, "if d < 1 {\nd = %d\n}\n", st.delay)
		fmt.Fprintf(&b, "s.r%s = now + d\n", st.ident)
		fmt.Fprintf(&b, "s.fired[st%s] = now\n", st.ident)
		fmt.Fprintf(&b, "if s.trace != nil {\ns.trace.Fire(now, in.Seq, st%s, %s)\ns.trace.Move(now, in.Seq, st%s, st%s)\n}\n",
			st.ident, opRef, st.ident, st.ident)
	default:
		to := &e.m.stages[tr.To.ID()]
		if delayVar {
			fmt.Fprintf(&b, "if d < 1 {\nd = %d\n}\n", to.delay)
			fmt.Fprintf(&b, "s.l%s, s.r%s = in, now+d\n", to.ident, to.ident)
		} else {
			fmt.Fprintf(&b, "s.l%s, s.r%s = in, now+%d\n", to.ident, to.ident, to.delay)
		}
		fmt.Fprintf(&b, "in.SetState(st%s)\n", to.ident)
		fmt.Fprintf(&b, "s.fired[st%s] = now\n", st.ident)
		fmt.Fprintf(&b, "if s.trace != nil {\ns.trace.Fire(now, in.Seq, st%s, %s)\ns.trace.Move(now, in.Seq, st%s, st%s)\n}\n",
			st.ident, opRef, to.ident, st.ident)
	}
	return b.String()
}

// stepBody emits one class's candidate chain for a stage: each candidate's
// enabling clauses (destination latch free, inlined guard) as one if, in
// arc-priority order, firing the first enabled one.
func (e *emitter) stepBody(st *stageInfo, c int) string {
	cands := st.cands[c]
	if len(cands) == 0 {
		return fmt.Sprintf("// class %s can never leave %s\n", className(c), st.name)
	}
	var b strings.Builder
	for slot, cd := range cands {
		var conds []string
		if cd.tr.NeedsCapacity() {
			conds = append(conds, fmt.Sprintf("s.l%s == nil", e.m.stages[cd.tr.To.ID()].ident))
		}
		switch {
		case cd.body.Explained():
			conds = append(conds, "in.IssueReady(bypassStates)")
		case cd.body.Guarded():
			conds = append(conds, "in.LSMMore()")
		}
		fire := e.fireLines(st, slot, cd)
		if len(conds) == 0 {
			// Unconditionally enabled: fires every time, shadowing any
			// lower-priority candidate (the interpreted engine would never
			// reach them either).
			b.WriteString(fire)
			break
		}
		fmt.Fprintf(&b, "if %s {\n%sreturn\n}\n", strings.Join(conds, " && "), fire)
	}
	return b.String()
}

// classifyBody mirrors the engine's classifyToken for one class: probe the
// highest-priority candidate's clauses in enabling order and name the first
// failing one.
func (e *emitter) classifyBody(st *stageInfo, c int) string {
	cands := st.cands[c]
	if len(cands) == 0 {
		return "return obsv.StallGuard\n"
	}
	cd := cands[0]
	var b strings.Builder
	if cd.tr.NeedsCapacity() {
		fmt.Fprintf(&b, "if s.l%s != nil {\nreturn obsv.StallCapacity\n}\n", e.m.stages[cd.tr.To.ID()].ident)
	}
	if cd.body.Explained() {
		b.WriteString("if !in.IssueReady(bypassStates) {\nreturn in.IssueStallKind(bypassStates)\n}\n")
	}
	b.WriteString("return obsv.StallGuard\n")
	return b.String()
}

func emit(m *model, opts Options) []byte {
	e := &emitter{m: m}
	nc := int(arm.NumClasses)

	e.f("// Code generated by rcpngen from the %q machine spec; DO NOT EDIT.\n", m.name)
	e.f("//\n// Regenerate with:\n//\n//\tgo run ./cmd/rcpngen -model %s -pkg %s -out %s\n\n",
		opts.Model, opts.Package, opts.OutDir)
	e.f("// Package %s is a generated cycle-accurate simulator for the %s\n", opts.Package, m.name)
	e.f("// model: the RCPN's sorted_transitions table compiled to one flattened\n")
	e.f("// step function per pipeline stage, with guards inlined as ifs and\n")
	e.f("// per-operation-class dispatch devirtualized into direct calls. Fetch and\n")
	e.f("// decode (with the per-PC decoded-instruction cache), architected state,\n")
	e.f("// flush handling and checkpointing are shared with the interpreted\n")
	e.f("// machines through the machine package's generated-simulator runtime,\n")
	e.f("// and the chunked-stepping protocol through batch.Driver.\n")
	e.f("package %s\n\n", opts.Package)
	e.f("import (\n\"fmt\"\n\n\"rcpn/internal/arm\"\n\"rcpn/internal/batch\"\n\"rcpn/internal/ckpt\"\n\"rcpn/internal/machine\"\n\"rcpn/internal/obsv\"\n)\n\n")

	e.f("const modelName = %q\n\n", m.name)
	e.f("// Pipeline state indices: the source net's place ids, reused as trace\n")
	e.f("// locations, profile rows and the bypass-query states tokens carry.\n")
	e.f("const (\n")
	for _, st := range m.stages {
		e.f("st%s = %d\n", st.ident, st.id)
	}
	e.f(")\n\n")
	e.f("const numStages = %d\n\n", len(m.stages))

	e.f("// bypassStates feeds the forwarding-network queries (reg.Ref.CanReadIn).\n")
	if len(m.bypass) == 0 {
		e.f("var bypassStates []int\n\n")
	} else {
		refs := make([]string, len(m.bypass))
		for i, id := range m.bypass {
			refs[i] = "st" + m.stages[id].ident
		}
		e.f("var bypassStates = []int{%s}\n\n", strings.Join(refs, ", "))
	}

	e.f("// Name tables, identical to the interpreted net's profile and trace\n// tables so artifacts are comparable across the two engines.\n")
	e.f("var stageNames = []string{")
	for i, st := range m.stages {
		if i > 0 {
			e.f(", ")
		}
		e.f("%q", st.name)
	}
	e.f("}\n\n")
	e.f("var locNames = []string{")
	for _, st := range m.stages {
		e.f("%q, ", st.name)
	}
	e.f("%q}\n\n", m.endName)
	e.f("var opNames = []string{\n")
	for _, op := range m.ops {
		e.f("%q,\n", op)
	}
	e.f("}\n\n")

	e.f("// Per-(stage, candidate slot) transition ids by operation class — the\n")
	e.f("// trace Fire op argument; -1 marks a class without that candidate.\n")
	e.f("var (\n")
	for _, st := range m.stages {
		slots := 0
		for c := 0; c < nc; c++ {
			if len(st.cands[c]) > slots {
				slots = len(st.cands[c])
			}
		}
		for j := 0; j < slots; j++ {
			e.f("op%s%d = [...]int32{", st.ident, j)
			for c := 0; c < nc; c++ {
				if c > 0 {
					e.f(", ")
				}
				if j < len(st.cands[c]) {
					e.f("%d", st.cands[c][j].tr.ID())
				} else {
					e.f("-1")
				}
			}
			e.f("}\n")
		}
	}
	e.f(")\n\n")

	// The simulator type.
	e.f("// Sim is one %s pipeline instance: a single-slot latch per stage plus\n", m.name)
	e.f("// the shared net-free machine runtime.\n")
	e.f("type Sim struct {\n")
	e.f("// Driver is the shared chunked-stepping protocol (Run, RunUntil, Drain\n")
	e.f("// and the batch.CheckpointStepper methods) over Cycle.\n")
	e.f("batch.Driver\n\n")
	e.f("m *machine.Machine\n\n")
	e.f("// One latch per capacity-1 stage place; r<stage> is the first cycle\n// the occupant's output transitions may fire (residency delay).\n")
	for _, st := range m.stages {
		e.f("l%s *machine.Inst\n", st.ident)
		e.f("r%s int64\n", st.ident)
	}
	e.f("\n// Cycles counts completed simulation cycles.\nCycles int64\n\n")
	e.f("// Observability attachments; nil unless enabled (every hot-path hook\n// is one nil check).\n")
	e.f("prof *obsv.StallProfile\ntrace *obsv.Tracer\n")
	e.f("// fired[stage] is the last cycle a transition fired out of the stage.\n")
	e.f("fired [numStages]int64\n")
	e.f("// victims is the flush hook's reusable scratch buffer.\nvictims []*machine.Inst\n")
	e.f("}\n\n")

	e.f("// New builds a fresh simulator over program p.\n")
	e.f("func New(p *arm.Program, cfg machine.Config) *Sim {\n")
	e.f("s := &Sim{m: machine.NewGenRuntime(modelName, p, cfg)}\n")
	e.f("s.Driver = batch.NewDriver(s)\n")
	e.f("s.m.SetGenFlush(s.flushYounger)\n")
	e.f("for i := range s.fired {\ns.fired[i] = -1\n}\n")
	e.f("return s\n}\n\n")

	e.f("// Runtime exposes the shared machine runtime (architected state, fetch\n// statistics, program results).\n")
	e.f("func (s *Sim) Runtime() *machine.Machine { return s.m }\n\n")

	// Cycle: stages in reverse topological order, then fetch, then profile.
	e.f("// Cycle executes one cycle (batch.Core): every stage in the net's reverse\n")
	e.f("// topological order (downstream first, so a latch empties before its\n")
	e.f("// feeder fills it and one token moves at most once per cycle), then\n")
	e.f("// fetch, then the per-cycle profile slot.\n")
	e.f("func (s *Sim) Cycle() (int64, uint64, bool) {\n")
	e.f("now := s.Cycles\n")
	for _, id := range m.order {
		e.f("s.step%s(now)\n", m.stages[id].ident)
	}
	e.f("s.fetch(now)\n")
	e.f("if s.prof != nil {\ns.profileCycle(now)\n}\n")
	e.f("s.Cycles++\n")
	e.f("m := s.m\n")
	e.f("return s.Cycles, m.Instret, m.Err != nil || (m.Exited || m.Draining()) && s.Drained()\n}\n\n")

	// Stage step functions, in the same order as Cycle calls them.
	for _, id := range m.order {
		st := &m.stages[id]
		e.f("// step%s advances the %s stage.\n", st.ident, st.name)
		e.f("func (s *Sim) step%s(now int64) {\n", st.ident)
		e.f("in := s.l%s\n", st.ident)
		e.f("if in == nil || s.r%s > now {\nreturn\n}\n", st.ident)
		bodies := make([]string, nc)
		for c := 0; c < nc; c++ {
			bodies[c] = e.stepBody(st, c)
		}
		e.dispatch(bodies)
		e.f("}\n\n")
	}

	// fetch.
	fe := &m.stages[m.fetchTo]
	e.f("// fetch runs the front end: one instruction per cycle into %s when the\n", fe.name)
	e.f("// latch is free, with the I-cache latency as the arrival delay.\n")
	e.f("func (s *Sim) fetch(now int64) {\n")
	e.f("if s.l%s != nil {\nreturn\n}\n", fe.ident)
	e.f("in, lat := s.m.GenFetch()\n")
	e.f("if in == nil {\nreturn\n}\n")
	e.f("if lat < 1 {\nlat = %d\n}\n", fe.delay)
	e.f("s.l%s, s.r%s = in, now+lat\n", fe.ident, fe.ident)
	e.f("in.SetState(st%s)\n", fe.ident)
	e.f("if s.trace != nil {\ns.trace.Birth(now, in.Seq, st%s)\n}\n", fe.ident)
	e.f("}\n\n")

	// flushYounger.
	e.f("// flushYounger is the machine's squash hook: clear every latch holding\n")
	e.f("// an instruction younger than seq and hand the victims back (lock\n")
	e.f("// release, recycling and the PC redirect happen machine-side).\n")
	e.f("func (s *Sim) flushYounger(seq uint64) []*machine.Inst {\n")
	e.f("v := s.victims[:0]\n")
	for _, st := range m.stages {
		e.f("if in := s.l%s; in != nil && in.Seq > seq {\ns.l%s = nil\nv = append(v, in)\n}\n", st.ident, st.ident)
	}
	e.f("s.victims = v\nreturn v\n}\n\n")

	// profileCycle + classify functions.
	e.f("// profileCycle fills one accounting slot per stage for the cycle that\n")
	e.f("// just executed, mirroring the interpreted engine's end-of-cycle\n")
	e.f("// classification exactly (same taxonomy, same clause order).\n")
	e.f("func (s *Sim) profileCycle(now int64) {\n")
	for _, st := range m.stages {
		e.f("if s.fired[st%s] == now {\ns.prof.Advance(st%s)\n} else {\ns.prof.Stall(st%s, s.classify%s(now))\n}\n",
			st.ident, st.ident, st.ident, st.ident)
	}
	e.f("s.prof.EndCycle()\n}\n\n")

	for si := range m.stages {
		st := &m.stages[si]
		e.f("// classify%s names the stall of an unprogressed %s slot: Empty, still\n", st.ident, st.name)
		e.f("// in a residency delay, or the first failing enabling clause of the\n")
		e.f("// occupant's highest-priority candidate.\n")
		e.f("func (s *Sim) classify%s(now int64) obsv.StallKind {\n", st.ident)
		e.f("in := s.l%s\n", st.ident)
		e.f("if in == nil {\nreturn obsv.StallEmpty\n}\n")
		e.f("if s.r%s > now {\nreturn obsv.StallDelay\n}\n", st.ident)
		bodies := make([]string, nc)
		for c := 0; c < nc; c++ {
			bodies[c] = e.classifyBody(st, c)
		}
		e.dispatch(bodies)
		e.f("}\n\n")
	}

	// Drained + run loops + checkpointing.
	drained := make([]string, 0, len(m.stages)+1)
	for _, st := range m.stages {
		drained = append(drained, fmt.Sprintf("s.l%s == nil", st.ident))
	}
	drained = append(drained, "!s.m.FetchHeld()")
	e.f("// Drained reports whether no instruction is in flight.\n")
	e.f("func (s *Sim) Drained() bool {\nreturn %s\n}\n\n", strings.Join(drained, " && "))

	e.f("// Finished reports whether the program exited and the pipeline drained.\n")
	e.f("func (s *Sim) Finished() bool { return s.m.Exited && s.Drained() }\n\n")
	e.f("// HoldFetch pauses (true) or resumes (false) the front end.\n")
	e.f("func (s *Sim) HoldFetch(hold bool) { s.m.HoldFetch(hold) }\n\n")
	e.f("// Failure returns the recorded simulation failure, or nil.\n")
	e.f("func (s *Sim) Failure() error { return s.m.Err }\n\n")
	e.f("// Counters returns the cumulative (position, cycles, instructions); the\n")
	e.f("// position is the cycle count.\n")
	e.f("func (s *Sim) Counters() (int64, int64, uint64) { return s.Cycles, s.Cycles, s.m.Instret }\n\n")
	e.f("// Where names the model and its fetch PC for limit errors.\n")
	e.f("func (s *Sim) Where() (string, uint32) { return modelName, s.m.PC() }\n\n")

	e.f("// CheckBoundary returns the error Checkpoint would return now, without\n")
	e.f("// capturing anything.\n")
	e.f("func (s *Sim) CheckBoundary() error {\n")
	e.f("if !s.Drained() {\nreturn fmt.Errorf(\"%%s: checkpoint requires a drained pipeline\", modelName)\n}\n")
	e.f("return s.m.CheckBoundary()\n}\n\n")
	e.f("// Checkpoint captures architected plus warm microarchitectural state;\n")
	e.f("// the pipeline must be drained.\n")
	e.f("func (s *Sim) Checkpoint() (*ckpt.Checkpoint, error) {\n")
	e.f("if err := s.CheckBoundary(); err != nil {\nreturn nil, err\n}\n")
	e.f("return s.m.Checkpoint()\n}\n\n")

	e.f("// Restore overwrites the simulator's state with the checkpoint; the\n")
	e.f("// pipeline must be drained (a fresh instance is).\n")
	e.f("func (s *Sim) Restore(ck *ckpt.Checkpoint) error {\n")
	e.f("if !s.Drained() {\nreturn fmt.Errorf(\"%%s: restore requires a drained pipeline\", modelName)\n}\n")
	e.f("return s.m.Restore(ck)\n}\n\n")

	e.f("// AttachTrace routes the token game into tr; the net's place and\n")
	e.f("// transition names are the tracer's name tables. Call before the first\n")
	e.f("// cycle.\n")
	e.f("func (s *Sim) AttachTrace(tr *obsv.Tracer) {\n")
	e.f("tr.Locs, tr.Ops = locNames, opNames\n")
	e.f("s.trace = tr\n}\n\n")

	e.f("// EnableProfile turns on per-cycle stall attribution and returns the\n")
	e.f("// live profile. Call before the first cycle; calling it again returns\n")
	e.f("// the same profile.\n")
	e.f("func (s *Sim) EnableProfile() *obsv.StallProfile {\n")
	e.f("if s.prof == nil {\ns.prof = obsv.NewStallProfile(stageNames...)\ns.m.InstallProfile(s.prof)\n}\n")
	e.f("return s.prof\n}\n\n")

	return e.buf.Bytes()
}
