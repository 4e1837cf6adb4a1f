package machine

import (
	"fmt"

	"rcpn/internal/arm"
	"rcpn/internal/obsv"
	"rcpn/internal/reg"
)

// This file contains the operation-class semantics shared by the processor
// models. Each model wires these guard/action bodies into its own RCPN
// transitions; the model file itself then reads like the pipeline block
// diagram (stages, places, and which class takes which path), which is the
// paper's productivity claim (§5: one man-day for StrongARM).
//
// The canonical pairing discipline of §3.1 is kept throughout: every Read /
// ReadIn / ReserveWrite in an action is covered by the matching CanRead /
// CanReadIn / CanWrite in the guard of the same transition. The issue stage
// uses Source, the one-lookup form of the first two, and hands its answer
// from the guard to the action (ReadSource).

// issueBlock evaluates the issue-stage guard clause by clause, in order:
// flags readable, and — unless the condition already fails — source
// operands readable (register file or bypass) and destinations reservable.
// The class-dependent part, which operands are sources and which are
// destinations, is the instance's decode-time plan. It records where the
// flags and each source come from for Issue, and names the first failing
// clause: a source — including the flags — unavailable in the file and on
// every bypass is a RAW wait, a destination that cannot be reserved a
// writeback-order wait. StallEmpty means the guard holds.
func (in *Inst) issueBlock(bypass []int) obsv.StallKind {
	in.sourced = false
	if p := in.psr; p != nil {
		w, ok := p.Source(bypass)
		if !ok {
			return obsv.StallRAW // flags not yet forwardable
		}
		in.psrSrc = w
		v := p.Register().Value()
		if w != nil {
			v = w.Value()
		}
		if f := arm.UnpackFlags(v); !in.I.Cond.Passes(f.N, f.Z, f.C, f.V) {
			in.sourced = true
			return obsv.StallEmpty // will be annulled; needs nothing else
		}
	}
	for i, r := range in.reads {
		w, ok := r.Source(bypass)
		if !ok {
			return obsv.StallRAW
		}
		in.srcs[i] = w
	}
	for _, r := range in.dsts {
		if !r.CanWrite() {
			return obsv.StallWriteback
		}
	}
	in.sourced = true
	return obsv.StallEmpty
}

// IssueReady is the issue-stage guard (see issueBlock). A passing guard
// leaves the issue record for the Issue action of the same firing.
func (in *Inst) IssueReady(bypass []int) bool {
	return in.issueBlock(bypass) == obsv.StallEmpty
}

// IssueStallKind sub-classifies a false IssueReady for stall attribution
// (core consults it through Transition.Explain, profiling slow path only):
// the kind of the guard's first failing clause, or StallGuard when the
// guard holds.
func (in *Inst) IssueStallKind(bypass []int) obsv.StallKind {
	if k := in.issueBlock(bypass); k != obsv.StallEmpty {
		return k
	}
	return obsv.StallGuard
}

// Issue is the issue-stage action: read the flags, evaluate the condition
// (annulling the instruction if it fails), read source operands from where
// the passing IssueReady found them, and reserve the destinations. Reads
// are attributed to the register file or the bypass network in the
// machine's stall profile, so hazards *hidden* by forwarding are visible
// next to the ones that stalled ("bypass-served" in the DESIGN.md §10
// taxonomy). Issue without a passing IssueReady since the instance was
// fetched or last issued is a guard/action mismatch and panics.
func (in *Inst) Issue(bypass []int) {
	if !in.sourced {
		panic(fmt.Sprintf("machine: Issue of %#08x without a passing IssueReady (guard/action mismatch)", in.I.Addr))
	}
	in.sourced = false
	var files, bypassed uint64
	if in.psr != nil {
		in.psr.ReadSource(in.psrSrc)
		if in.psrSrc == nil {
			files++
		} else {
			bypassed++
		}
		f := in.flags()
		if !in.I.Cond.Passes(f.N, f.Z, f.C, f.V) {
			in.annulled = true
			in.countReads(files, bypassed)
			return
		}
	}
	for i, r := range in.reads {
		w := in.srcs[i]
		r.ReadSource(w)
		if w == nil {
			files++
		} else {
			bypassed++
		}
	}
	in.countReads(files+uint64(in.nconst), bypassed) // a constant reads like the file
	if in.accum {
		// UMLAL/SMLAL read their destinations as the 64-bit accumulator;
		// the guard established CanWrite, which implies self-readability.
		in.dst.Read()
		in.dst2.Read()
	}
	for _, r := range in.dsts {
		r.ReserveWrite()
	}
	if in.writesFlags {
		in.psr.ReserveWrite() // flag writes stack in order (see reg doc)
	}
}

// countReads adds an issue's operand reads to the stall profile, if any.
func (in *Inst) countReads(files, bypassed uint64) {
	if p := in.m.prof; p != nil {
		p.FileReads += files
		p.BypassServed += bypassed
	}
}

// baseWriteback reports whether the load/store updates its base register.
func (in *Inst) baseWriteback() bool {
	return in.I.Class == arm.ClassLoadStore && (!in.I.PreIndex || in.I.Writeback)
}

func (in *Inst) baseRef() *reg.Ref {
	r, _ := in.src1.(*reg.Ref)
	return r
}

// Execute is the execute-stage action: compute results into the destination
// Refs (making them available to the bypass network), compute effective
// addresses, and resolve control transfers whose outcome is now known.
func (in *Inst) Execute() {
	i := &in.I
	switch i.Class {
	case arm.ClassDataProc:
		if in.annulled {
			if in.writesPC {
				in.resolveControl(i.Addr + 4)
			}
			return
		}
		var f arm.Flags
		if in.psr != nil {
			f = in.flags()
		}
		rm, rs := opVal(in.src2), opVal(in.src3)
		op2, shiftC := i.Operand2Value(rm, rs, f.C)
		res, nf := arm.AluExec(i.Op, opVal(in.src1), op2, f, shiftC)
		if in.dst != nil {
			in.dst.SetValue(res)
		}
		if in.writesFlags {
			in.psr.SetValue(nf.Pack())
		}
		if in.writesPC {
			in.resolveControl(res &^ 3)
		}

	case arm.ClassMult:
		if in.annulled {
			return
		}
		var f arm.Flags
		if in.psr != nil {
			f = in.flags()
		}
		var nf arm.Flags
		if i.Long {
			var lo, hi uint32
			lo, hi, nf = arm.MulLongExec(i.SignedMul, i.Accum,
				opVal(in.src1), opVal(in.src2), in.dst2.Value(), in.dst.Value(), f)
			in.dst2.SetValue(lo)
			in.dst.SetValue(hi)
		} else {
			var res uint32
			res, nf = arm.MulExec(i.Accum, opVal(in.src1), opVal(in.src2), opVal(in.src3), f)
			in.dst.SetValue(res)
		}
		if in.writesFlags {
			in.psr.SetValue(nf.Pack())
		}

	case arm.ClassLoadStore:
		if in.annulled {
			if in.writesPC {
				in.resolveControl(i.Addr + 4)
			}
			return
		}
		base := opVal(in.src1)
		rmVal := opVal(in.src2)
		// Offset semantics live in arm.LSAddress; for immediate forms the
		// Const already holds the offset and LSAddress re-reads i.Imm, which
		// is identical.
		ea, wb, doWB := i.LSAddress(base, rmVal)
		in.ea, in.wbVal = ea, wb
		if doWB && in.baseRef() != nil {
			in.baseRef().SetValue(wb) // bypassable immediately
		}

	case arm.ClassLoadStoreM:
		if in.annulled {
			if in.writesPC {
				in.resolveControl(i.Addr + 4)
			}
			return
		}
		base := opVal(in.src1)
		addrs, final := i.LSMAddressesInto(base, in.lsmAddrs)
		in.lsmAddrs = addrs
		in.wbVal = final
		if i.Writeback && in.lsmBase != nil && !in.lsmLoadsBase() {
			in.lsmBase.SetValue(final)
		}

	case arm.ClassBranch:
		taken := !in.annulled
		target := i.Target()
		actual := i.Addr + 4
		if taken {
			actual = target
		}
		if in.m.Pred != nil {
			in.m.Pred.Update(i.Addr, taken, target)
		}
		if taken && in.lr != nil {
			in.lr.SetValue(i.Addr + 4)
		}
		in.resolveControl(actual)

	case arm.ClassSystem:
		if i.Undefined() && !in.annulled {
			in.m.fail("undefined instruction %#08x at %#08x", i.Raw, i.Addr)
		}
	}
}

// lsmLoadsBase reports whether an LDM loads its own base register (in which
// case the loaded value wins over the base writeback, per ARM7).
func (in *Inst) lsmLoadsBase() bool {
	return in.I.Load && in.I.RegList&(1<<in.I.Rn) != 0
}

// opVal returns an operand's internal value (0 for absent operands).
func opVal(op reg.Operand) uint32 {
	if op == nil {
		return 0
	}
	return op.Value()
}

// MemLatency returns the data-cache latency for this instruction's effective
// address — the paper's "t.delay = mem.delay(addr)" — or 0 for annulled
// instructions and non-memory classes.
func (in *Inst) MemLatency() int64 {
	if in.annulled {
		return 0
	}
	switch in.I.Class {
	case arm.ClassLoadStore:
		if in.m.DCache == nil {
			return 1
		}
		return int64(in.m.DCache.Access(in.ea))
	case arm.ClassLoadStoreM:
		if len(in.lsmAddrs) == 0 {
			return 0
		}
		if in.m.DCache == nil {
			return 1
		}
		return int64(in.m.DCache.Access(in.lsmAddrs[0]))
	}
	return 0
}

// MemAccess performs the functional memory access of a load/store after its
// cache delay elapsed, and resolves loads into the PC.
func (in *Inst) MemAccess() {
	if in.annulled {
		return
	}
	i := &in.I
	m := in.m
	if i.Load {
		v := i.LoadValue(m.Mem, in.ea)
		if in.writesPC {
			in.resolveControl(v &^ 3)
		} else if in.dst != nil {
			in.dst.SetValue(v)
		}
	} else {
		v := opVal(in.src3)
		switch {
		case i.Byte:
			m.Mem.Write8(in.ea, byte(v))
		case i.Half:
			m.Mem.Write16(in.ea, uint16(v))
		default:
			m.Mem.Write32(in.ea, v)
		}
	}
}

// LSMMore reports whether block-transfer micro-operations remain beyond the
// one the final transition will perform.
func (in *Inst) LSMMore() bool {
	return !in.annulled && in.lsmIdx < len(in.lsmAddrs)-1
}

// LSMStep performs one block-transfer micro-operation (one register moved)
// and returns the cache latency for the *next* one. This is the paper's
// footnote 1: "a token may stay in one stage and produce multiple tokens to
// go through the same path and repeat a set of behaviors."
func (in *Inst) LSMStep() int64 {
	in.lsmTransfer(in.lsmIdx)
	in.lsmIdx++
	if in.lsmIdx < len(in.lsmAddrs) && in.m.DCache != nil {
		return int64(in.m.DCache.Access(in.lsmAddrs[in.lsmIdx]))
	}
	return 1
}

// LSMFinish performs the last micro-operation and the base writeback, and
// resolves a PC load.
func (in *Inst) LSMFinish() {
	if in.annulled {
		if in.writesPC {
			in.resolveControl(in.I.Addr + 4)
		}
		return
	}
	in.lsmTransfer(in.lsmIdx)
	in.lsmIdx++
	if in.I.Writeback && in.lsmBase != nil {
		if in.lsmLoadsBase() {
			// The loaded value already landed; only the reservation the
			// issue took for the writeback is left to drop.
			in.lsmBase.Release()
		} else {
			in.lsmBase.Writeback()
		}
	}
}

// lsmTransfer moves the k-th listed register (list order = ascending reg
// number = ascending address).
func (in *Inst) lsmTransfer(k int) {
	if k >= len(in.lsmAddrs) {
		return
	}
	i := &in.I
	m := in.m
	addr := in.lsmAddrs[k]
	slot := 0
	for r := arm.Reg(0); r < 16; r++ {
		if i.RegList&(1<<r) == 0 {
			continue
		}
		if slot != k {
			slot++
			continue
		}
		if i.Load {
			v := m.Mem.Read32(addr)
			if r == arm.PC {
				in.resolveControl(v &^ 3)
			} else {
				ref := in.lrefs[k]
				ref.SetValue(v)
				ref.Writeback() // out-of-order completion per register
			}
		} else {
			if r == arm.PC {
				m.Mem.Write32(addr, i.Addr+12)
			} else {
				m.Mem.Write32(addr, in.lrefs[k].Value())
			}
		}
		return
	}
}

// Writeback is the final-stage action: commit results to architected state
// and perform trap effects.
func (in *Inst) Writeback() {
	if in.annulled {
		return
	}
	switch in.I.Class {
	case arm.ClassDataProc, arm.ClassMult:
		if in.dst != nil {
			in.dst.Writeback()
		}
		if in.dst2 != nil {
			in.dst2.Writeback()
		}
		if in.writesFlags {
			in.psr.Writeback()
		}
	case arm.ClassLoadStore:
		if in.I.Load && in.dst != nil {
			in.dst.Writeback()
		}
		if in.baseWriteback() && in.baseRef() != nil {
			in.baseRef().Writeback()
		}
	case arm.ClassBranch:
		if in.lr != nil {
			in.lr.Writeback()
		}
	case arm.ClassSystem:
		if !in.I.Undefined() {
			in.m.syscall(in)
		}
	}
}

// MulLatency returns the multiplier occupancy for this instruction:
// early-terminating on the Rs magnitude, plus one cycle for the 64-bit
// (long) forms.
func (in *Inst) MulLatency() int64 {
	d := mulCycles(opVal(in.src2))
	if in.I.Long {
		d++
	}
	return d
}

// mulCycles models ARM7-style multiplier early termination: the cycle count
// depends on the magnitude of the multiplier operand.
func mulCycles(rs uint32) int64 {
	switch {
	case rs&0xffffff00 == 0 || rs|0xff == 0xffffffff:
		return 1
	case rs&0xffff0000 == 0 || rs|0xffff == 0xffffffff:
		return 2
	case rs&0xff000000 == 0 || rs|0xffffff == 0xffffffff:
		return 3
	default:
		return 4
	}
}
