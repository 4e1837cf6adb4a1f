package machine

import (
	"fmt"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
)

// This file implements the direction the paper's conclusion sets out:
// "extracting fast functional simulators from the same detailed RCPN
// models." A functional Machine executes programs using exactly the
// operation-class semantics the cycle-accurate models wire into their
// transitions — the Issue/Execute/MemAccess/Writeback bodies of ops.go —
// but runs each instruction to completion in program order, with no net,
// no stages, no hazards, and no timing. One model description therefore
// yields both the cycle-accurate simulator and the fast functional one,
// and the test suite cross-checks the extraction against the independent
// ISS golden model.

// NewFunctional builds a functional simulator from the operation-class
// model. Caches and the branch predictor are not consulted; the decoded-
// instruction cache still applies (and benefits throughput the same way).
func NewFunctional(p *arm.Program, cfg Config) *Machine {
	m := newMachine("functional", p, cfg, nil)
	m.functional = true
	m.Driver = batch.NewDriver(functionalCore{m})
	return m
}

// RunFunctional executes the program to completion in program order.
// maxInstrs bounds runaway programs (0 = 2^40).
func (m *Machine) RunFunctional(maxInstrs uint64) error {
	if !m.functional {
		return fmt.Errorf("%s: not a functional machine (use NewFunctional)", m.Name)
	}
	if maxInstrs == 0 {
		maxInstrs = 1 << 40
	}
	if done, err := m.StepTo(int64(maxInstrs)); err != nil || done {
		return err
	}
	return fmt.Errorf("functional: instruction limit %d exceeded at pc=%#08x", maxInstrs, m.pc)
}

// functionalCore is the batch.Core of a functional machine: one step is
// one instruction, so its position is the retirement count, and it reports
// zero cycles. Every instruction boundary is drained, so the driver never
// steps it to drain.
type functionalCore struct{ *Machine }

func (f functionalCore) Cycle() (int64, uint64, bool) {
	f.stepFunctional()
	return int64(f.Instret), f.Instret, f.Err != nil || f.Exited || f.holdFetch
}

func (f functionalCore) Counters() (int64, int64, uint64) {
	return int64(f.Instret), 0, f.Instret
}

// stepFunctional drives one instruction through the model's class semantics
// back-to-back: the degenerate one-stage pipeline.
func (m *Machine) stepFunctional() {
	addr := m.pc
	in := m.decode(addr)
	in.predNext = addr + 4
	m.pc = addr + 4 // control transfers overwrite via resolveControl

	// In program order every guard of the class sub-nets holds trivially
	// (no instruction is in flight, so no reference is reserved); the issue
	// guard still runs, since it records the sources Issue reads.
	in.IssueReady(nil)
	in.Issue(nil)
	in.Execute()
	switch in.I.Class {
	case arm.ClassLoadStore:
		in.MemAccess()
	case arm.ClassLoadStoreM:
		for in.LSMMore() {
			in.LSMStep()
		}
		in.LSMFinish()
	}
	in.Writeback()

	m.Instret++
	if m.prof != nil {
		m.prof.Advance(0)
		m.prof.EndCycle()
	}
	if m.funcTracer != nil {
		m.funcTracer.Birth(int64(m.Instret), m.Instret, 0)
		m.funcTracer.Retire(int64(m.Instret), m.Instret, 0)
	}
	m.recycle(in)
}
