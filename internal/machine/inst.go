package machine

import (
	"math/bits"

	"rcpn/internal/arm"
	"rcpn/internal/core"
	"rcpn/internal/reg"
)

// Inst is the payload of an instruction token: the statically decoded
// instruction plus its operand references. It is the paper's "customized
// version of the corresponding RCPN sub-net ... generated for individual
// instances of instructions": symbols of the operation class are replaced by
// RegRef/Const objects at decode, and the instance is cached per PC and
// recycled (§3, §5).
type Inst struct {
	m   *Machine
	I   arm.Instr
	Tok *core.Token
	Seq uint64

	// Operand references; usage varies by class:
	//   DataProc:   src1=Rn  src2=op2(Rm/imm)  src3=Rs shift amount
	//   Mult:       src1=Rm  src2=Rs           src3=Rn accumulator
	//   LoadStore:  src1=Rn base  src2=offset  src3=Rd store data
	//   System:     src1=r0
	src1, src2, src3 reg.Operand
	dst              *reg.Ref   // Rd write target (nil if none or PC); RdHi for long multiplies
	dst2             *reg.Ref   // RdLo of long multiplies
	lr               *reg.Ref   // link-register write (BL)
	psr              *reg.Ref   // flags read and/or write
	lrefs            []*reg.Ref // LDM/STM per-register refs, list order
	lsmBase          *reg.Ref   // LDM/STM base (src1), reserved for a writeback

	// The issue plan: the class-dependent half of the issue stage,
	// evaluated once at decode (the paper's per-instance customisation of
	// the class sub-net) so the per-cycle guard and action are plain loops.
	reads  []*reg.Ref // register sources, read over the file or a bypass
	dsts   []*reg.Ref // destinations, checked (CanWrite) then reserved, in order
	nconst int        // constant sources; each counts as one register-file read
	accum  bool       // long multiply-accumulate: dst and dst2 are read too

	// The issue record: where a passing IssueReady found the flags and each
	// register source — nil for the register file, else the bypassed
	// writer. Issue reads through it instead of looking each operand up
	// again; it is valid only while sourced is set, from a passing guard
	// to the action that consumes it.
	psrSrc  *reg.Ref
	srcs    []*reg.Ref // parallel to reads
	sourced bool

	// The instance's operands and plan live inside it rather than in one
	// heap object each; block transfers, whose register lists outgrow
	// these, take one slice for the rest.
	refs    [5]reg.Ref
	consts  [3]reg.Const
	readBuf [3]*reg.Ref
	srcBuf  [3]*reg.Ref
	dstBuf  [2]*reg.Ref

	needPSR     bool // reads flags (condition or carry-in)
	writesFlags bool
	writesPC    bool // result redirects control flow (non-Branch classes)

	// Per-dynamic-instance state.
	annulled bool
	resolved bool   // control transfer already performed
	predNext uint32 // fetch PC chosen after this instruction was fetched
	ea       uint32 // effective address (LoadStore)
	wbVal    uint32 // base writeback value
	lsmIdx   int    // next register slot during LDM/STM micro-steps
	lsmAddrs []uint32
}

// decode returns a ready instruction instance for addr, reusing a pooled one
// when available (the token cache / partial-evaluation optimization).
func (m *Machine) decode(addr uint32) *Inst {
	if in := m.poolGet(addr); in != nil {
		in.resetDynamic()
		return in
	}
	return m.newInst(addr)
}

func (in *Inst) resetDynamic() {
	in.sourced = false
	in.annulled = false
	in.resolved = false
	in.predNext = 0
	in.ea = 0
	in.wbVal = 0
	in.lsmIdx = 0
	in.lsmAddrs = in.lsmAddrs[:0]
	in.Tok.Recycle(core.ClassID(in.I.Class), in)
}

// newInst decodes the word at addr, wires the operation class's symbols to
// RegRef/Const operands and builds the instance's issue plan.
func (m *Machine) newInst(addr uint32) *Inst {
	raw := m.Mem.Read32(addr)
	in := &Inst{m: m}
	in.I.Decode(raw, addr)
	in.Tok = m.tokens.Get(core.ClassID(in.I.Class), in)
	in.reads, in.dsts = in.readBuf[:0], in.dstBuf[:0]
	i := &in.I

	refs := in.refs[:0]
	if i.Class == arm.ClassLoadStoreM {
		// src1, every listed register and the flags.
		refs = make([]reg.Ref, 0, bits.OnesCount16(i.RegList)+2)
	}
	// ref returns a fresh operand reference to r, owned by the token, whose
	// residency answers the bypass (CanReadIn) questions about it.
	ref := func(r *reg.Register) *reg.Ref {
		refs = refs[:len(refs)+1]
		x := &refs[len(refs)-1]
		x.Retarget(r, in.Tok)
		return x
	}
	wr := func(r arm.Reg) *reg.Ref { return ref(m.regs[r]) }
	konst := func(v uint32) reg.Operand {
		c := &in.consts[in.nconst]
		in.nconst++
		c.Reset(v)
		return c
	}
	// A source operand; reads of r15 are the statically known addr+8.
	rd := func(r arm.Reg) reg.Operand {
		if r == arm.PC {
			return konst(addr + 8)
		}
		x := wr(r)
		in.reads = append(in.reads, x)
		return x
	}

	in.needPSR = i.Cond != arm.AL
	switch i.Class {
	case arm.ClassDataProc:
		if i.Op.UsesRn() {
			in.src1 = rd(i.Rn)
		}
		if i.HasImm {
			in.src2 = konst(i.Imm)
		} else {
			in.src2 = rd(i.Rm)
		}
		if i.ShiftReg {
			in.src3 = rd(i.Rs)
		}
		switch {
		case !i.Op.WritesRd():
		case i.Rd == arm.PC:
			in.writesPC = true
		default:
			in.dst = wr(i.Rd)
			in.dsts = append(in.dsts, in.dst)
		}
		in.writesFlags = i.SetFlags
		usesCarry := i.Op == arm.OpADC || i.Op == arm.OpSBC || i.Op == arm.OpRSC ||
			(!i.HasImm && !i.ShiftReg && i.ShiftTyp == arm.ROR && i.ShiftAmt == 0) // RRX
		in.needPSR = in.needPSR || usesCarry || i.SetFlags

	case arm.ClassMult:
		in.src1 = rd(i.Rm)
		in.src2 = rd(i.Rs)
		if i.Long {
			in.dst = wr(i.Rd)  // RdHi
			in.dst2 = wr(i.Rn) // RdLo
			in.dsts = append(in.dsts, in.dst, in.dst2)
			in.accum = i.Accum
		} else {
			if i.Accum {
				in.src3 = rd(i.Rn)
			}
			in.dst = wr(i.Rd)
			in.dsts = append(in.dsts, in.dst)
		}
		in.writesFlags = i.SetFlags
		in.needPSR = in.needPSR || i.SetFlags

	case arm.ClassLoadStore:
		in.src1 = rd(i.Rn)
		if i.HasImm {
			in.src2 = konst(i.Imm)
		} else {
			in.src2 = rd(i.Rm)
		}
		if i.Load {
			if i.Rd == arm.PC {
				in.writesPC = true
			} else {
				in.dst = wr(i.Rd)
				in.dsts = append(in.dsts, in.dst)
			}
		} else {
			if i.Rd == arm.PC {
				in.src3 = konst(addr + 12) // STR pc stores pc+12
			} else {
				in.src3 = rd(i.Rd)
			}
		}
		if b := in.baseRef(); b != nil && in.baseWriteback() {
			in.dsts = append(in.dsts, b)
		}

	case arm.ClassLoadStoreM:
		in.src1 = rd(i.Rn)
		in.lsmBase, _ = in.src1.(*reg.Ref)
		for r := arm.Reg(0); r < 16; r++ {
			if i.RegList&(1<<r) == 0 {
				continue
			}
			if r == arm.PC {
				// LDM pc resolves control; STM pc stores a constant.
				in.writesPC = in.writesPC || i.Load
				in.lrefs = append(in.lrefs, nil)
				continue
			}
			x := wr(r)
			in.lrefs = append(in.lrefs, x)
			if i.Load {
				in.dsts = append(in.dsts, x)
			} else {
				in.reads = append(in.reads, x)
			}
		}
		if i.Writeback && in.lsmBase != nil {
			in.dsts = append(in.dsts, in.lsmBase)
		}

	case arm.ClassBranch:
		if i.Link {
			in.lr = wr(arm.LR)
			in.dsts = append(in.dsts, in.lr)
		}

	case arm.ClassSystem:
		in.src1 = rd(0) // r0 carries the syscall argument
	}

	if in.needPSR || in.writesFlags {
		in.psr = ref(m.psrReg)
	}
	if len(in.reads) <= len(in.srcBuf) {
		in.srcs = in.srcBuf[:len(in.reads)]
	} else {
		in.srcs = make([]*reg.Ref, len(in.reads))
	}
	return in
}

// flags returns the architected NZCV as seen by this instruction's psr ref
// (valid only after psr.Read()).
func (in *Inst) flags() arm.Flags { return arm.UnpackFlags(in.psr.Value()) }

// releaseLocks drops every reservation this (squashed) instance may hold.
func (in *Inst) releaseLocks() {
	for _, r := range in.dsts {
		r.Release()
	}
	if in.psr != nil {
		in.psr.Release()
	}
}

// resolveControl redirects fetch once the architected next PC is known.
// Instructions that serialized the front end (SWI, PC loads) simply release
// it toward the right target; otherwise a wrong predicted path flushes the
// younger in-flight instructions (§3.2's "flushing L1 and L2 latches"
// generalized to the whole pipeline).
func (in *Inst) resolveControl(actualNext uint32) {
	in.resolved = true
	m := in.m
	if m.functional {
		// Functional extraction: no pipeline, just redirect.
		m.pc = actualNext
		return
	}
	if m.fetchHold == in {
		m.fetchHold = nil
		m.pc = actualNext
		return
	}
	if actualNext != in.predNext {
		m.flushAfter(in.Seq, actualNext)
	}
}
