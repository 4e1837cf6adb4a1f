package arm

import (
	"math/rand"
	"testing"
)

// Randomized encode->decode round trips: every field combination the
// encoders can produce must decode back to the same semantic instruction.
// (The disassembler round trip in asm_test.go covers the textual side; this
// covers the full binary field space far beyond the hand-picked cases.)

func TestRoundTripDataProcRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		cond := Cond(rng.Intn(15))
		op := DPOp(rng.Intn(16))
		s := rng.Intn(2) == 0 || !op.WritesRd()
		rd := Reg(rng.Intn(15))
		rn := Reg(rng.Intn(15))
		var op2 Operand2
		switch rng.Intn(3) {
		case 0:
			// Guaranteed-encodable immediate: 8-bit value, even rotation.
			v := uint32(rng.Intn(256))
			rot := uint32(rng.Intn(16)) * 2
			if rot != 0 {
				v = v>>rot | v<<(32-rot)
			}
			op2 = ImmOp(v)
		case 1:
			op2 = ShiftedOp(Reg(rng.Intn(15)), Shift(rng.Intn(4)), uint8(rng.Intn(32)))
		default:
			op2 = Operand2{Rm: Reg(rng.Intn(15)), ShiftTyp: Shift(rng.Intn(4)),
				ShiftReg: true, Rs: Reg(rng.Intn(15))}
		}
		w, err := EncodeDP(cond, op, s, rd, rn, op2)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		ins := decoded(w, 0)
		if ins.Class != ClassDataProc || ins.Cond != cond || ins.Op != op {
			t.Fatalf("case %d: class/cond/op mismatch: %+v", i, ins)
		}
		if op.WritesRd() && ins.Rd != rd {
			t.Fatalf("case %d: rd %v != %v", i, ins.Rd, rd)
		}
		if op.UsesRn() && ins.Rn != rn {
			t.Fatalf("case %d: rn %v != %v", i, ins.Rn, rn)
		}
		if op2.HasImm {
			if !ins.HasImm || ins.Imm != op2.Imm {
				t.Fatalf("case %d: imm %#x != %#x", i, ins.Imm, op2.Imm)
			}
		} else {
			if ins.HasImm || ins.Rm != op2.Rm || ins.ShiftTyp != op2.ShiftTyp ||
				ins.ShiftReg != op2.ShiftReg {
				t.Fatalf("case %d: op2 mismatch: %+v vs %+v", i, ins, op2)
			}
			if op2.ShiftReg && ins.Rs != op2.Rs {
				t.Fatalf("case %d: rs mismatch", i)
			}
			if !op2.ShiftReg && ins.ShiftAmt != op2.ShiftAmt {
				t.Fatalf("case %d: shift amount %d != %d", i, ins.ShiftAmt, op2.ShiftAmt)
			}
		}
	}
}

func TestRoundTripLoadStoreRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		cond := Cond(rng.Intn(15))
		load := rng.Intn(2) == 0
		byteSz := rng.Intn(2) == 0
		rd := Reg(rng.Intn(15))
		m := MemMode{
			Rn:       Reg(rng.Intn(15)),
			Up:       rng.Intn(2) == 0,
			PreIndex: rng.Intn(2) == 0,
		}
		if m.PreIndex {
			m.Writeback = rng.Intn(2) == 0
		}
		if rng.Intn(2) == 0 {
			m.Off = ImmOp(uint32(rng.Intn(4096)))
		} else {
			m.Off = ShiftedOp(Reg(rng.Intn(15)), Shift(rng.Intn(4)), uint8(rng.Intn(32)))
		}
		w, err := EncodeLS(cond, load, byteSz, rd, m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		ins := decoded(w, 0)
		if ins.Class != ClassLoadStore || ins.Load != load || ins.Byte != byteSz ||
			ins.Rd != rd || ins.Rn != m.Rn || ins.Up != m.Up || ins.PreIndex != m.PreIndex {
			t.Fatalf("case %d: mismatch %+v", i, ins)
		}
		if m.Off.HasImm && (!ins.HasImm || ins.Imm != m.Off.Imm) {
			t.Fatalf("case %d: imm offset mismatch", i)
		}
		if !m.Off.HasImm && (ins.HasImm || ins.Rm != m.Off.Rm) {
			t.Fatalf("case %d: reg offset mismatch", i)
		}
	}
}

func TestRoundTripHalfwordRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		cond := Cond(rng.Intn(15))
		// Valid combos: LDRH, LDRSB, LDRSH, STRH.
		type combo struct{ load, signed, half bool }
		combos := []combo{{true, false, true}, {true, true, false}, {true, true, true}, {false, false, true}}
		c := combos[rng.Intn(len(combos))]
		m := MemMode{
			Rn:       Reg(rng.Intn(15)),
			Up:       rng.Intn(2) == 0,
			PreIndex: rng.Intn(2) == 0,
		}
		if m.PreIndex {
			m.Writeback = rng.Intn(2) == 0
		}
		if rng.Intn(2) == 0 {
			m.Off = ImmOp(uint32(rng.Intn(256)))
		} else {
			m.Off = RegOp(Reg(rng.Intn(15)))
		}
		rd := Reg(rng.Intn(15))
		w, err := EncodeHS(cond, c.load, c.signed, c.half, rd, m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		ins := decoded(w, 0)
		if ins.Class != ClassLoadStore || ins.Load != c.load ||
			ins.Half != c.half || ins.SignedLoad != c.signed {
			t.Fatalf("case %d: form mismatch %+v (want %+v)", i, ins, c)
		}
		if ins.Rd != rd || ins.Rn != m.Rn || ins.Up != m.Up || ins.PreIndex != m.PreIndex {
			t.Fatalf("case %d: addressing mismatch %+v", i, ins)
		}
		if m.Off.HasImm && (!ins.HasImm || ins.Imm != m.Off.Imm) {
			t.Fatalf("case %d: split imm mismatch: %#x vs %#x", i, ins.Imm, m.Off.Imm)
		}
	}
}

func TestRoundTripLSMRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 3000; i++ {
		cond := Cond(rng.Intn(15))
		load := rng.Intn(2) == 0
		pre := rng.Intn(2) == 0
		up := rng.Intn(2) == 0
		wb := rng.Intn(2) == 0
		rn := Reg(rng.Intn(15))
		list := uint16(rng.Intn(1<<16-1) + 1)
		w := EncodeLSM(cond, load, pre, up, wb, rn, list)
		ins := decoded(w, 0)
		if ins.Class != ClassLoadStoreM || ins.Load != load || ins.PreIndex != pre ||
			ins.Up != up || ins.Writeback != wb || ins.Rn != rn || ins.RegList != list {
			t.Fatalf("case %d: %+v", i, ins)
		}
	}
}

func TestRoundTripMulLongRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		cond := Cond(rng.Intn(15))
		signed := rng.Intn(2) == 0
		accum := rng.Intn(2) == 0
		s := rng.Intn(2) == 0
		hi, lo, rm, rs := Reg(rng.Intn(15)), Reg(rng.Intn(15)), Reg(rng.Intn(15)), Reg(rng.Intn(15))
		w := EncodeMulLong(cond, signed, accum, s, hi, lo, rm, rs)
		ins := decoded(w, 0)
		if ins.Class != ClassMult || !ins.Long || ins.SignedMul != signed ||
			ins.Accum != accum || ins.SetFlags != s ||
			ins.Rd != hi || ins.Rn != lo || ins.Rm != rm || ins.Rs != rs {
			t.Fatalf("case %d: %+v", i, ins)
		}
	}
}

func TestRoundTripBranchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		cond := Cond(rng.Intn(15))
		link := rng.Intn(2) == 0
		addr := uint32(rng.Intn(1<<24)) &^ 3
		off := int32(rng.Intn(1<<23) - 1<<22)
		target := uint32(int64(addr) + 8 + int64(off)*4)
		w, err := EncodeBranch(cond, link, addr, target)
		if err != nil {
			continue // out-of-range combos are rejected, which is fine
		}
		ins := decoded(w, addr)
		if ins.Class != ClassBranch || ins.Link != link || ins.Target() != target {
			t.Fatalf("case %d: target %#x want %#x", i, ins.Target(), target)
		}
	}
}
