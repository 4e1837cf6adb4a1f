// Code generated by rcpngen from the "strongarm" machine spec; DO NOT EDIT.
//
// Regenerate with:
//
//	go run ./cmd/rcpngen -model pipe5 -pkg genpipe5 -out internal/genpipe5

// Package genpipe5 is a generated cycle-accurate simulator for the strongarm
// model: the RCPN's sorted_transitions table compiled to one flattened
// step function per pipeline stage, with guards inlined as ifs and
// per-operation-class dispatch devirtualized into direct calls. Fetch and
// decode (with the per-PC decoded-instruction cache), architected state,
// flush handling and checkpointing are shared with the interpreted
// machines through the machine package's generated-simulator runtime,
// and the chunked-stepping protocol through batch.Driver.
package genpipe5

import (
	"fmt"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/machine"
	"rcpn/internal/obsv"
)

const modelName = "strongarm"

// Pipeline state indices: the source net's place ids, reused as trace
// locations, profile rows and the bypass-query states tokens carry.
const (
	stFD = 0
	stEX = 1
	stME = 2
	stWB = 3
)

const numStages = 4

// bypassStates feeds the forwarding-network queries (reg.Ref.CanReadIn).
var bypassStates = []int{stME, stWB}

// Name tables, identical to the interpreted net's profile and trace
// tables so artifacts are comparable across the two engines.
var stageNames = []string{"FD", "EX", "ME", "WB"}

var locNames = []string{"FD", "EX", "ME", "WB", "end"}

var opNames = []string{
	"DataProc.FD.issue",
	"DataProc.EX.execute",
	"DataProc.ME.mem",
	"DataProc.WB.wb",
	"Mult.FD.issue",
	"Mult.EX.execute",
	"Mult.ME.mem",
	"Mult.WB.wb",
	"LoadStore.FD.issue",
	"LoadStore.EX.execute",
	"LoadStore.ME.mem",
	"LoadStore.WB.wb",
	"LoadStoreM.FD.issue",
	"LoadStoreM.EX.execute",
	"LoadStoreM.ME.memstep",
	"LoadStoreM.ME.memlast",
	"LoadStoreM.WB.wb",
	"Branch.FD.issue",
	"Branch.EX.execute",
	"Branch.ME.mem",
	"Branch.WB.wb",
	"System.FD.issue",
	"System.EX.execute",
	"System.ME.mem",
	"System.WB.wb",
}

// Per-(stage, candidate slot) transition ids by operation class — the
// trace Fire op argument; -1 marks a class without that candidate.
var (
	opFD0 = [...]int32{0, 4, 8, 12, 17, 21}
	opEX0 = [...]int32{1, 5, 9, 13, 18, 22}
	opME0 = [...]int32{2, 6, 10, 14, 19, 23}
	opME1 = [...]int32{-1, -1, -1, 15, -1, -1}
	opWB0 = [...]int32{3, 7, 11, 16, 20, 24}
)

// Sim is one strongarm pipeline instance: a single-slot latch per stage plus
// the shared net-free machine runtime.
type Sim struct {
	// Driver is the shared chunked-stepping protocol (Run, RunUntil, Drain
	// and the batch.CheckpointStepper methods) over Cycle.
	batch.Driver

	m *machine.Machine

	// One latch per capacity-1 stage place; r<stage> is the first cycle
	// the occupant's output transitions may fire (residency delay).
	lFD *machine.Inst
	rFD int64
	lEX *machine.Inst
	rEX int64
	lME *machine.Inst
	rME int64
	lWB *machine.Inst
	rWB int64

	// Cycles counts completed simulation cycles.
	Cycles int64

	// Observability attachments; nil unless enabled (every hot-path hook
	// is one nil check).
	prof  *obsv.StallProfile
	trace *obsv.Tracer
	// fired[stage] is the last cycle a transition fired out of the stage.
	fired [numStages]int64
	// victims is the flush hook's reusable scratch buffer.
	victims []*machine.Inst
}

// New builds a fresh simulator over program p.
func New(p *arm.Program, cfg machine.Config) *Sim {
	s := &Sim{m: machine.NewGenRuntime(modelName, p, cfg)}
	s.Driver = batch.NewDriver(s)
	s.m.SetGenFlush(s.flushYounger)
	for i := range s.fired {
		s.fired[i] = -1
	}
	return s
}

// Runtime exposes the shared machine runtime (architected state, fetch
// statistics, program results).
func (s *Sim) Runtime() *machine.Machine { return s.m }

// Cycle executes one cycle (batch.Core): every stage in the net's reverse
// topological order (downstream first, so a latch empties before its
// feeder fills it and one token moves at most once per cycle), then
// fetch, then the per-cycle profile slot.
func (s *Sim) Cycle() (int64, uint64, bool) {
	now := s.Cycles
	s.stepWB(now)
	s.stepME(now)
	s.stepEX(now)
	s.stepFD(now)
	s.fetch(now)
	if s.prof != nil {
		s.profileCycle(now)
	}
	s.Cycles++
	m := s.m
	return s.Cycles, m.Instret, m.Err != nil || (m.Exited || m.Draining()) && s.Drained()
}

// stepWB advances the WB stage.
func (s *Sim) stepWB(now int64) {
	in := s.lWB
	if in == nil || s.rWB > now {
		return
	}
	s.lWB = nil
	in.SetState(-1)
	in.Writeback()
	s.fired[stWB] = now
	if s.trace != nil {
		s.trace.Fire(now, in.Seq, stWB, opWB0[in.I.Class])
		s.trace.Retire(now, in.Seq, stWB)
	}
	s.m.GenRetire(in)
}

// stepME advances the ME stage.
func (s *Sim) stepME(now int64) {
	in := s.lME
	if in == nil || s.rME > now {
		return
	}
	switch in.I.Class {
	case arm.ClassLoadStore:
		if s.lWB == nil {
			s.lME = nil
			in.SetState(-1)
			in.MemAccess()
			s.lWB, s.rWB = in, now+1
			in.SetState(stWB)
			s.fired[stME] = now
			if s.trace != nil {
				s.trace.Fire(now, in.Seq, stME, opME0[in.I.Class])
				s.trace.Move(now, in.Seq, stWB, stME)
			}
			return
		}
	case arm.ClassLoadStoreM:
		if in.LSMMore() {
			d := in.LSMStep()
			if d < 1 {
				d = 1
			}
			s.rME = now + d
			s.fired[stME] = now
			if s.trace != nil {
				s.trace.Fire(now, in.Seq, stME, opME0[in.I.Class])
				s.trace.Move(now, in.Seq, stME, stME)
			}
			return
		}
		if s.lWB == nil {
			s.lME = nil
			in.SetState(-1)
			in.LSMFinish()
			s.lWB, s.rWB = in, now+1
			in.SetState(stWB)
			s.fired[stME] = now
			if s.trace != nil {
				s.trace.Fire(now, in.Seq, stME, opME1[in.I.Class])
				s.trace.Move(now, in.Seq, stWB, stME)
			}
			return
		}
	default: // DataProc, Mult, Branch, System
		if s.lWB == nil {
			s.lME = nil
			in.SetState(-1)
			s.lWB, s.rWB = in, now+1
			in.SetState(stWB)
			s.fired[stME] = now
			if s.trace != nil {
				s.trace.Fire(now, in.Seq, stME, opME0[in.I.Class])
				s.trace.Move(now, in.Seq, stWB, stME)
			}
			return
		}
	}
}

// stepEX advances the EX stage.
func (s *Sim) stepEX(now int64) {
	in := s.lEX
	if in == nil || s.rEX > now {
		return
	}
	switch in.I.Class {
	case arm.ClassLoadStore, arm.ClassLoadStoreM:
		if s.lME == nil {
			s.lEX = nil
			in.SetState(-1)
			in.Execute()
			d := in.MemLatency()
			if d < 1 {
				d = 1
			}
			s.lME, s.rME = in, now+d
			in.SetState(stME)
			s.fired[stEX] = now
			if s.trace != nil {
				s.trace.Fire(now, in.Seq, stEX, opEX0[in.I.Class])
				s.trace.Move(now, in.Seq, stME, stEX)
			}
			return
		}
	default: // DataProc, Mult, Branch, System
		if s.lME == nil {
			s.lEX = nil
			in.SetState(-1)
			in.Execute()
			s.lME, s.rME = in, now+1
			in.SetState(stME)
			s.fired[stEX] = now
			if s.trace != nil {
				s.trace.Fire(now, in.Seq, stEX, opEX0[in.I.Class])
				s.trace.Move(now, in.Seq, stME, stEX)
			}
			return
		}
	}
}

// stepFD advances the FD stage.
func (s *Sim) stepFD(now int64) {
	in := s.lFD
	if in == nil || s.rFD > now {
		return
	}
	switch in.I.Class {
	case arm.ClassMult:
		if s.lEX == nil && in.IssueReady(bypassStates) {
			s.lFD = nil
			in.SetState(-1)
			in.Issue(bypassStates)
			var d int64
			if !in.Annulled() {
				d = in.MulLatency()
			}
			if d < 1 {
				d = 1
			}
			s.lEX, s.rEX = in, now+d
			in.SetState(stEX)
			s.fired[stFD] = now
			if s.trace != nil {
				s.trace.Fire(now, in.Seq, stFD, opFD0[in.I.Class])
				s.trace.Move(now, in.Seq, stEX, stFD)
			}
			return
		}
	default: // DataProc, LoadStore, LoadStoreM, Branch, System
		if s.lEX == nil && in.IssueReady(bypassStates) {
			s.lFD = nil
			in.SetState(-1)
			in.Issue(bypassStates)
			s.lEX, s.rEX = in, now+1
			in.SetState(stEX)
			s.fired[stFD] = now
			if s.trace != nil {
				s.trace.Fire(now, in.Seq, stFD, opFD0[in.I.Class])
				s.trace.Move(now, in.Seq, stEX, stFD)
			}
			return
		}
	}
}

// fetch runs the front end: one instruction per cycle into FD when the
// latch is free, with the I-cache latency as the arrival delay.
func (s *Sim) fetch(now int64) {
	if s.lFD != nil {
		return
	}
	in, lat := s.m.GenFetch()
	if in == nil {
		return
	}
	if lat < 1 {
		lat = 1
	}
	s.lFD, s.rFD = in, now+lat
	in.SetState(stFD)
	if s.trace != nil {
		s.trace.Birth(now, in.Seq, stFD)
	}
}

// flushYounger is the machine's squash hook: clear every latch holding
// an instruction younger than seq and hand the victims back (lock
// release, recycling and the PC redirect happen machine-side).
func (s *Sim) flushYounger(seq uint64) []*machine.Inst {
	v := s.victims[:0]
	if in := s.lFD; in != nil && in.Seq > seq {
		s.lFD = nil
		v = append(v, in)
	}
	if in := s.lEX; in != nil && in.Seq > seq {
		s.lEX = nil
		v = append(v, in)
	}
	if in := s.lME; in != nil && in.Seq > seq {
		s.lME = nil
		v = append(v, in)
	}
	if in := s.lWB; in != nil && in.Seq > seq {
		s.lWB = nil
		v = append(v, in)
	}
	s.victims = v
	return v
}

// profileCycle fills one accounting slot per stage for the cycle that
// just executed, mirroring the interpreted engine's end-of-cycle
// classification exactly (same taxonomy, same clause order).
func (s *Sim) profileCycle(now int64) {
	if s.fired[stFD] == now {
		s.prof.Advance(stFD)
	} else {
		s.prof.Stall(stFD, s.classifyFD(now))
	}
	if s.fired[stEX] == now {
		s.prof.Advance(stEX)
	} else {
		s.prof.Stall(stEX, s.classifyEX(now))
	}
	if s.fired[stME] == now {
		s.prof.Advance(stME)
	} else {
		s.prof.Stall(stME, s.classifyME(now))
	}
	if s.fired[stWB] == now {
		s.prof.Advance(stWB)
	} else {
		s.prof.Stall(stWB, s.classifyWB(now))
	}
	s.prof.EndCycle()
}

// classifyFD names the stall of an unprogressed FD slot: Empty, still
// in a residency delay, or the first failing enabling clause of the
// occupant's highest-priority candidate.
func (s *Sim) classifyFD(now int64) obsv.StallKind {
	in := s.lFD
	if in == nil {
		return obsv.StallEmpty
	}
	if s.rFD > now {
		return obsv.StallDelay
	}
	if s.lEX != nil {
		return obsv.StallCapacity
	}
	if !in.IssueReady(bypassStates) {
		return in.IssueStallKind(bypassStates)
	}
	return obsv.StallGuard
}

// classifyEX names the stall of an unprogressed EX slot: Empty, still
// in a residency delay, or the first failing enabling clause of the
// occupant's highest-priority candidate.
func (s *Sim) classifyEX(now int64) obsv.StallKind {
	in := s.lEX
	if in == nil {
		return obsv.StallEmpty
	}
	if s.rEX > now {
		return obsv.StallDelay
	}
	if s.lME != nil {
		return obsv.StallCapacity
	}
	return obsv.StallGuard
}

// classifyME names the stall of an unprogressed ME slot: Empty, still
// in a residency delay, or the first failing enabling clause of the
// occupant's highest-priority candidate.
func (s *Sim) classifyME(now int64) obsv.StallKind {
	in := s.lME
	if in == nil {
		return obsv.StallEmpty
	}
	if s.rME > now {
		return obsv.StallDelay
	}
	switch in.I.Class {
	case arm.ClassLoadStoreM:
		return obsv.StallGuard
	default: // DataProc, Mult, LoadStore, Branch, System
		if s.lWB != nil {
			return obsv.StallCapacity
		}
		return obsv.StallGuard
	}
}

// classifyWB names the stall of an unprogressed WB slot: Empty, still
// in a residency delay, or the first failing enabling clause of the
// occupant's highest-priority candidate.
func (s *Sim) classifyWB(now int64) obsv.StallKind {
	in := s.lWB
	if in == nil {
		return obsv.StallEmpty
	}
	if s.rWB > now {
		return obsv.StallDelay
	}
	return obsv.StallGuard
}

// Drained reports whether no instruction is in flight.
func (s *Sim) Drained() bool {
	return s.lFD == nil && s.lEX == nil && s.lME == nil && s.lWB == nil && !s.m.FetchHeld()
}

// Finished reports whether the program exited and the pipeline drained.
func (s *Sim) Finished() bool { return s.m.Exited && s.Drained() }

// HoldFetch pauses (true) or resumes (false) the front end.
func (s *Sim) HoldFetch(hold bool) { s.m.HoldFetch(hold) }

// Failure returns the recorded simulation failure, or nil.
func (s *Sim) Failure() error { return s.m.Err }

// Counters returns the cumulative (position, cycles, instructions); the
// position is the cycle count.
func (s *Sim) Counters() (int64, int64, uint64) { return s.Cycles, s.Cycles, s.m.Instret }

// Where names the model and its fetch PC for limit errors.
func (s *Sim) Where() (string, uint32) { return modelName, s.m.PC() }

// CheckBoundary returns the error Checkpoint would return now, without
// capturing anything.
func (s *Sim) CheckBoundary() error {
	if !s.Drained() {
		return fmt.Errorf("%s: checkpoint requires a drained pipeline", modelName)
	}
	return s.m.CheckBoundary()
}

// Checkpoint captures architected plus warm microarchitectural state;
// the pipeline must be drained.
func (s *Sim) Checkpoint() (*ckpt.Checkpoint, error) {
	if err := s.CheckBoundary(); err != nil {
		return nil, err
	}
	return s.m.Checkpoint()
}

// Restore overwrites the simulator's state with the checkpoint; the
// pipeline must be drained (a fresh instance is).
func (s *Sim) Restore(ck *ckpt.Checkpoint) error {
	if !s.Drained() {
		return fmt.Errorf("%s: restore requires a drained pipeline", modelName)
	}
	return s.m.Restore(ck)
}

// AttachTrace routes the token game into tr; the net's place and
// transition names are the tracer's name tables. Call before the first
// cycle.
func (s *Sim) AttachTrace(tr *obsv.Tracer) {
	tr.Locs, tr.Ops = locNames, opNames
	s.trace = tr
}

// EnableProfile turns on per-cycle stall attribution and returns the
// live profile. Call before the first cycle; calling it again returns
// the same profile.
func (s *Sim) EnableProfile() *obsv.StallProfile {
	if s.prof == nil {
		s.prof = obsv.NewStallProfile(stageNames...)
		s.m.InstallProfile(s.prof)
	}
	return s.prof
}
