package arm

import (
	"testing"
	"testing/quick"
)

func TestShifterLSL(t *testing.T) {
	cases := []struct {
		val, amt  uint32
		byReg     bool
		cin       bool
		want      uint32
		wantCarry bool
	}{
		{0x1, 0, false, true, 0x1, true}, // amount 0: unchanged, carry preserved
		{0x1, 1, false, false, 0x2, false},
		{0x80000000, 1, false, false, 0, true},
		{0xffffffff, 4, false, false, 0xfffffff0, true},
		{0x1, 32, true, false, 0, true},
		{0x1, 33, true, false, 0, false},
		{0x1, 300, true, true, 0, false}, // 300&0xff=44 >32
	}
	for _, c := range cases {
		got, carry := Shifter(c.val, LSL, c.amt, c.byReg, c.cin)
		if got != c.want || carry != c.wantCarry {
			t.Errorf("LSL %#x by %d (reg=%v): got %#x/%v want %#x/%v",
				c.val, c.amt, c.byReg, got, carry, c.want, c.wantCarry)
		}
	}
}

func TestShifterLSRImm0Is32(t *testing.T) {
	got, carry := Shifter(0x80000000, LSR, 0, false, false)
	if got != 0 || !carry {
		t.Errorf("LSR #32: got %#x carry=%v", got, carry)
	}
}

func TestShifterASR(t *testing.T) {
	got, carry := Shifter(0x80000000, ASR, 4, false, false)
	if got != 0xf8000000 || carry {
		t.Errorf("ASR #4: got %#x carry=%v", got, carry)
	}
	got, carry = Shifter(0x80000000, ASR, 0, false, false) // ASR #32
	if got != 0xffffffff || !carry {
		t.Errorf("ASR #32: got %#x carry=%v", got, carry)
	}
	got, carry = Shifter(0x7fffffff, ASR, 40, true, false)
	if got != 0 || carry {
		t.Errorf("ASR reg 40 of positive: got %#x carry=%v", got, carry)
	}
}

func TestShifterRORAndRRX(t *testing.T) {
	got, carry := Shifter(0x00000003, ROR, 1, false, false)
	if got != 0x80000001 || !carry {
		t.Errorf("ROR #1: got %#x carry=%v", got, carry)
	}
	// ROR #0 immediate encodes RRX: carry shifts in at the top.
	got, carry = Shifter(0x00000001, ROR, 0, false, true)
	if got != 0x80000000 || !carry {
		t.Errorf("RRX: got %#x carry=%v", got, carry)
	}
	got, carry = Shifter(0x00000002, ROR, 0, false, false)
	if got != 0x00000001 || carry {
		t.Errorf("RRX no carry-in: got %#x carry=%v", got, carry)
	}
	// Register ROR by multiple of 32: value unchanged, carry = bit31.
	got, carry = Shifter(0x80000000, ROR, 32, true, false)
	if got != 0x80000000 || !carry {
		t.Errorf("ROR reg 32: got %#x carry=%v", got, carry)
	}
}

// Rotation by register amount is a bijection: ror by n then rol by n restores.
func TestShifterRORProperty(t *testing.T) {
	err := quick.Check(func(v uint32, amt uint8) bool {
		n := uint32(amt&31) | 1 // nonzero, <32
		r1, _ := Shifter(v, ROR, n, true, false)
		r2, _ := Shifter(r1, ROR, 32-n, true, false)
		return r2 == v
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestAluAddSubFlags(t *testing.T) {
	cases := []struct {
		op         DPOp
		a, b       uint32
		want       uint32
		n, z, c, v bool
	}{
		{OpADD, 1, 2, 3, false, false, false, false},
		{OpADD, 0xffffffff, 1, 0, false, true, true, false},
		{OpADD, 0x7fffffff, 1, 0x80000000, true, false, false, true},
		{OpADD, 0x80000000, 0x80000000, 0, false, true, true, true},
		{OpSUB, 5, 3, 2, false, false, true, false},
		{OpSUB, 3, 5, 0xfffffffe, true, false, false, false},
		{OpSUB, 0x80000000, 1, 0x7fffffff, false, false, true, true},
		{OpSUB, 7, 7, 0, false, true, true, false},
		{OpRSB, 3, 5, 2, false, false, true, false},
		{OpCMP, 5, 5, 0, false, true, true, false},
		{OpCMN, 0xffffffff, 1, 0, false, true, true, false},
	}
	for _, tc := range cases {
		res, fl := AluExec(tc.op, tc.a, tc.b, Flags{}, false)
		if res != tc.want || fl.N != tc.n || fl.Z != tc.z || fl.C != tc.c || fl.V != tc.v {
			t.Errorf("%v %#x,%#x: got %#x NZCV=%v%v%v%v want %#x %v%v%v%v",
				tc.op, tc.a, tc.b, res, fl.N, fl.Z, fl.C, fl.V,
				tc.want, tc.n, tc.z, tc.c, tc.v)
		}
	}
}

func TestAluCarryChain(t *testing.T) {
	// ADC with carry set adds 1 more.
	res, fl := AluExec(OpADC, 10, 20, Flags{C: true}, false)
	if res != 31 {
		t.Errorf("ADC = %d", res)
	}
	// SBC with carry clear subtracts 1 more.
	res, _ = AluExec(OpSBC, 10, 3, Flags{C: false}, false)
	if res != 6 {
		t.Errorf("SBC (C=0) = %d", res)
	}
	res, _ = AluExec(OpSBC, 10, 3, Flags{C: true}, false)
	if res != 7 {
		t.Errorf("SBC (C=1) = %d", res)
	}
	// RSC mirrors SBC with swapped operands.
	res, _ = AluExec(OpRSC, 3, 10, Flags{C: true}, false)
	if res != 7 {
		t.Errorf("RSC = %d", res)
	}
	_ = fl
}

// 64-bit add/sub chains via ADDS/ADC and SUBS/SBC behave like native 64-bit
// arithmetic: a property test of the carry semantics.
func TestAluWideArithmeticProperty(t *testing.T) {
	err := quick.Check(func(a, b uint64) bool {
		alo, ahi := uint32(a), uint32(a>>32)
		blo, bhi := uint32(b), uint32(b>>32)
		lo, f := AluExec(OpADD, alo, blo, Flags{}, false)
		hi, _ := AluExec(OpADC, ahi, bhi, f, false)
		if uint64(hi)<<32|uint64(lo) != a+b {
			return false
		}
		lo, f = AluExec(OpSUB, alo, blo, Flags{}, false)
		hi, _ = AluExec(OpSBC, ahi, bhi, f, false)
		return uint64(hi)<<32|uint64(lo) == a-b
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAluLogicalFlags(t *testing.T) {
	// Logical ops take C from the shifter, leave V alone.
	res, fl := AluExec(OpAND, 0xf0, 0x0f, Flags{V: true}, true)
	if res != 0 || !fl.Z || !fl.C || !fl.V {
		t.Errorf("AND: res=%#x fl=%+v", res, fl)
	}
	res, fl = AluExec(OpMVN, 0, 0, Flags{}, false)
	if res != 0xffffffff || !fl.N || fl.C {
		t.Errorf("MVN: res=%#x fl=%+v", res, fl)
	}
	res, _ = AluExec(OpBIC, 0xff, 0x0f, Flags{}, false)
	if res != 0xf0 {
		t.Errorf("BIC: res=%#x", res)
	}
	res, _ = AluExec(OpEOR, 0xff, 0x0f, Flags{}, false)
	if res != 0xf0 {
		t.Errorf("EOR: res=%#x", res)
	}
	res, _ = AluExec(OpORR, 0xf0, 0x0f, Flags{}, false)
	if res != 0xff {
		t.Errorf("ORR: res=%#x", res)
	}
	res, _ = AluExec(OpTEQ, 5, 5, Flags{}, false)
	if res != 0 {
		t.Errorf("TEQ: res=%#x", res)
	}
}

func TestMulExec(t *testing.T) {
	res, fl := MulExec(false, 6, 7, 99, Flags{C: true, V: true})
	if res != 42 || fl.N || fl.Z || !fl.C || !fl.V {
		t.Errorf("MUL: res=%d fl=%+v", res, fl)
	}
	res, _ = MulExec(true, 6, 7, 8, Flags{})
	if res != 50 {
		t.Errorf("MLA: res=%d", res)
	}
	_, fl = MulExec(false, 0, 5, 0, Flags{})
	if !fl.Z {
		t.Errorf("MUL zero: fl=%+v", fl)
	}
}

func TestLSAddressModes(t *testing.T) {
	enc := func(pre, up, wb bool, off uint32) *Instr {
		w, err := EncodeLS(AL, true, false, 1, MemMode{Rn: 2, Off: ImmOp(off), Up: up, PreIndex: pre, Writeback: wb})
		if err != nil {
			t.Fatal(err)
		}
		ins := decoded(w, 0)
		return &ins
	}
	// Pre-indexed, no writeback.
	if ea, _, wb := enc(true, true, false, 8).LSAddress(100, 0); ea != 108 || wb {
		t.Errorf("pre: ea=%d wb=%v", ea, wb)
	}
	// Pre-indexed with writeback.
	if ea, nb, wb := enc(true, true, true, 8).LSAddress(100, 0); ea != 108 || nb != 108 || !wb {
		t.Errorf("pre!: ea=%d nb=%d wb=%v", ea, nb, wb)
	}
	// Pre-indexed down.
	if ea, _, _ := enc(true, false, false, 8).LSAddress(100, 0); ea != 92 {
		t.Errorf("pre-down: ea=%d", ea)
	}
	// Post-indexed: address is the old base, base moves.
	if ea, nb, wb := enc(false, true, false, 8).LSAddress(100, 0); ea != 100 || nb != 108 || !wb {
		t.Errorf("post: ea=%d nb=%d wb=%v", ea, nb, wb)
	}
}

func TestLSMAddresses(t *testing.T) {
	mk := func(pre, up bool) *Instr {
		w := EncodeLSM(AL, true, pre, up, true, 0, 0b1110) // r1,r2,r3
		ins := decoded(w, 0)
		return &ins
	}
	// IA from 100: 100,104,108; final 112.
	addrs, final := mk(false, true).LSMAddresses(100)
	if len(addrs) != 3 || addrs[0] != 100 || addrs[2] != 108 || final != 112 {
		t.Errorf("IA: %v final=%d", addrs, final)
	}
	// IB from 100: 104,108,112; final 112.
	addrs, final = mk(true, true).LSMAddresses(100)
	if addrs[0] != 104 || addrs[2] != 112 || final != 112 {
		t.Errorf("IB: %v final=%d", addrs, final)
	}
	// DA from 100: 92,96,100; final 88.
	addrs, final = mk(false, false).LSMAddresses(100)
	if addrs[0] != 92 || addrs[2] != 100 || final != 88 {
		t.Errorf("DA: %v final=%d", addrs, final)
	}
	// DB from 100: 88,92,96; final 88.
	addrs, final = mk(true, false).LSMAddresses(100)
	if addrs[0] != 88 || addrs[2] != 96 || final != 88 {
		t.Errorf("DB: %v final=%d", addrs, final)
	}
}

// Push/pop round trip: stmdb sp!, {..} then ldmia sp!, {..} restores sp.
func TestLSMStackProperty(t *testing.T) {
	err := quick.Check(func(mask uint16, sp uint32) bool {
		if mask == 0 {
			return true
		}
		sp &^= 3
		push := decoded(EncodeLSM(AL, false, true, false, true, SP, mask), 0)
		pop := decoded(EncodeLSM(AL, true, false, true, true, SP, mask), 0)
		_, spAfterPush := push.LSMAddresses(sp)
		pushAddrs, _ := push.LSMAddresses(sp)
		popAddrs, spAfterPop := pop.LSMAddresses(spAfterPush)
		if spAfterPop != sp {
			return false
		}
		// Same slots touched in the same (ascending) order.
		for i := range pushAddrs {
			if pushAddrs[i] != popAddrs[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
