package arm

import (
	"testing"
	"testing/quick"
)

func TestCondPasses(t *testing.T) {
	cases := []struct {
		c          Cond
		n, z, f, v bool
		want       bool
	}{
		{EQ, false, true, false, false, true},
		{EQ, false, false, false, false, false},
		{NE, false, false, false, false, true},
		{CS, false, false, true, false, true},
		{CC, false, false, true, false, false},
		{MI, true, false, false, false, true},
		{PL, true, false, false, false, false},
		{VS, false, false, false, true, true},
		{VC, false, false, false, true, false},
		{HI, false, false, true, false, true},
		{HI, false, true, true, false, false},
		{LS, false, true, true, false, true},
		{GE, true, false, false, true, true},
		{GE, true, false, false, false, false},
		{LT, true, false, false, false, true},
		{GT, false, false, false, false, true},
		{GT, false, true, false, false, false},
		{LE, false, true, false, false, true},
		{AL, false, false, false, false, true},
		{NV, true, true, true, true, false},
	}
	for _, c := range cases {
		if got := c.c.Passes(c.n, c.z, c.f, c.v); got != c.want {
			t.Errorf("%v.Passes(%v,%v,%v,%v) = %v, want %v", c.c, c.n, c.z, c.f, c.v, got, c.want)
		}
	}
}

// Every cond either passes or its logical complement passes (except AL/NV).
func TestCondComplement(t *testing.T) {
	pairs := [][2]Cond{{EQ, NE}, {CS, CC}, {MI, PL}, {VS, VC}, {HI, LS}, {GE, LT}, {GT, LE}}
	err := quick.Check(func(n, z, c, v bool) bool {
		for _, p := range pairs {
			if p[0].Passes(n, z, c, v) == p[1].Passes(n, z, c, v) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestEncodeImmRoundTrip(t *testing.T) {
	// Every encodable immediate must decode back to itself through the DP
	// immediate decode path.
	check := func(v uint32) bool {
		enc, ok := EncodeImm(v)
		if !ok {
			return true // not encodable: nothing to check
		}
		w, err := EncodeDP(AL, OpMOV, false, 1, 0, ImmOp(v))
		if err != nil {
			return false
		}
		_ = enc
		ins := decoded(w, 0)
		return ins.Class == ClassDataProc && ins.HasImm && ins.Imm == v
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{0, 1, 0xff, 0x100, 0xff0, 0xff00, 0xff000000, 0xf000000f, 0x3fc} {
		if !check(v) {
			t.Errorf("immediate %#x failed round trip", v)
		}
	}
}

func TestEncodeImmRejects(t *testing.T) {
	for _, v := range []uint32{0x101, 0xff1, 0x12345678, 0xffff} {
		if _, ok := EncodeImm(v); ok {
			t.Errorf("EncodeImm(%#x) unexpectedly succeeded", v)
		}
	}
}

func TestDecodeDPFields(t *testing.T) {
	w, err := EncodeDP(NE, OpADD, true, 3, 4, ShiftedOp(5, LSR, 7))
	if err != nil {
		t.Fatal(err)
	}
	ins := decoded(w, 0x8000)
	if ins.Class != ClassDataProc || ins.Cond != NE || ins.Op != OpADD ||
		!ins.SetFlags || ins.Rd != 3 || ins.Rn != 4 || ins.Rm != 5 ||
		ins.ShiftTyp != LSR || ins.ShiftAmt != 7 || ins.HasImm || ins.ShiftReg {
		t.Fatalf("bad decode: %+v", ins)
	}
}

func TestDecodeRegShift(t *testing.T) {
	w, err := EncodeDP(AL, OpORR, false, 1, 2, Operand2{Rm: 3, ShiftTyp: ASR, ShiftReg: true, Rs: 4})
	if err != nil {
		t.Fatal(err)
	}
	ins := decoded(w, 0)
	if !ins.ShiftReg || ins.Rs != 4 || ins.Rm != 3 || ins.ShiftTyp != ASR {
		t.Fatalf("bad reg-shift decode: %+v", ins)
	}
}

func TestDecodeMul(t *testing.T) {
	w := EncodeMul(AL, true, true, 2, 3, 4, 5)
	ins := decoded(w, 0)
	if ins.Class != ClassMult || !ins.Accum || !ins.SetFlags ||
		ins.Rd != 2 || ins.Rm != 3 || ins.Rs != 4 || ins.Rn != 5 {
		t.Fatalf("bad MLA decode: %+v", ins)
	}
}

func TestDecodeLS(t *testing.T) {
	w, err := EncodeLS(AL, true, true, 1, MemMode{Rn: 2, Off: ImmOp(20), Up: true, PreIndex: true, Writeback: true})
	if err != nil {
		t.Fatal(err)
	}
	ins := decoded(w, 0)
	if ins.Class != ClassLoadStore || !ins.Load || !ins.Byte || !ins.PreIndex ||
		!ins.Up || !ins.Writeback || ins.Rn != 2 || ins.Rd != 1 || !ins.HasImm || ins.Imm != 20 {
		t.Fatalf("bad LDRB decode: %+v", ins)
	}
}

func TestDecodeBranchOffsets(t *testing.T) {
	for _, tc := range []struct{ addr, target uint32 }{
		{0x8000, 0x8000},   // self
		{0x8000, 0x8008},   // +8 (offset 0)
		{0x8000, 0x7000},   // backward
		{0x8000, 0x108000}, // far forward
	} {
		w, err := EncodeBranch(AL, false, tc.addr, tc.target)
		if err != nil {
			t.Fatal(err)
		}
		ins := decoded(w, tc.addr)
		if ins.Class != ClassBranch || ins.Target() != tc.target {
			t.Errorf("branch %#x->%#x decoded target %#x", tc.addr, tc.target, ins.Target())
		}
	}
}

func TestDecodeBranchRange(t *testing.T) {
	if _, err := EncodeBranch(AL, false, 0x8000, 0x8000+(1<<26)); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := EncodeBranch(AL, false, 0x8000, 0x8002); err == nil {
		t.Error("expected alignment error")
	}
}

func TestDecodeSWI(t *testing.T) {
	ins := decoded(EncodeSWI(AL, 42), 0)
	if ins.Class != ClassSystem || ins.SWINum != 42 || ins.Undefined() {
		t.Fatalf("bad SWI decode: %+v", ins)
	}
}

func TestDecodeUndefined(t *testing.T) {
	// Coprocessor space (1110 110... ) is outside the subset.
	ins := decoded(0xec000000, 0)
	if !ins.Undefined() {
		t.Fatalf("expected undefined, got %+v", ins)
	}
}

// Decoding any word never panics and always yields a class.
func TestDecodeTotal(t *testing.T) {
	err := quick.Check(func(raw, addr uint32) bool {
		ins := decoded(raw, addr)
		return ins.Class < NumClasses
	}, &quick.Config{MaxCount: 20000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegListCount(t *testing.T) {
	if n := RegListCount(0); n != 0 {
		t.Errorf("count(0) = %d", n)
	}
	if n := RegListCount(0xffff); n != 16 {
		t.Errorf("count(ffff) = %d", n)
	}
	if n := RegListCount(0x8001); n != 2 {
		t.Errorf("count(8001) = %d", n)
	}
}

func TestWritesPC(t *testing.T) {
	mov, _ := EncodeDP(AL, OpMOV, false, PC, 0, RegOp(LR))
	cases := []struct {
		raw  uint32
		want bool
	}{
		{mustDP(t, OpADD, 0, 1), false},
		{mov, true},
		{EncodeLSM(AL, true, false, true, true, SP, 1<<PC), true},
		{EncodeLSM(AL, true, false, true, true, SP, 1<<4), false},
		{EncodeSWI(AL, 0), false},
	}
	for _, c := range cases {
		ins := decoded(c.raw, 0)
		if ins.WritesPC() != c.want {
			t.Errorf("WritesPC(%08x) = %v, want %v", c.raw, !c.want, c.want)
		}
	}
}

func mustDP(t *testing.T, op DPOp, rd, rn Reg) uint32 {
	t.Helper()
	w, err := EncodeDP(AL, op, false, rd, rn, ImmOp(1))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// decoded returns the decoding of raw fetched from addr.
func decoded(raw, addr uint32) Instr {
	var ins Instr
	ins.Decode(raw, addr)
	return ins
}
