package arm

import (
	"strconv"
	"strings"
	"testing"
)

func asmOne(t *testing.T, line string) *Instr {
	t.Helper()
	p, err := Assemble(line+"\n", 0x8000)
	if err != nil {
		t.Fatalf("assemble %q: %v", line, err)
	}
	ins := decoded(p.Words()[0], 0x8000)
	return &ins
}

func TestAssembleDataProc(t *testing.T) {
	ins := asmOne(t, "adds r1, r2, #10")
	if ins.Op != OpADD || !ins.SetFlags || ins.Rd != 1 || ins.Rn != 2 || !ins.HasImm || ins.Imm != 10 {
		t.Fatalf("adds: %+v", ins)
	}
	ins = asmOne(t, "subne r0, r1, r2, lsl #3")
	if ins.Op != OpSUB || ins.Cond != NE || ins.ShiftTyp != LSL || ins.ShiftAmt != 3 || ins.Rm != 2 {
		t.Fatalf("subne: %+v", ins)
	}
	ins = asmOne(t, "mov r4, r5, lsr r6")
	if ins.Op != OpMOV || !ins.ShiftReg || ins.Rs != 6 || ins.ShiftTyp != LSR {
		t.Fatalf("mov shift-reg: %+v", ins)
	}
	ins = asmOne(t, "cmp r3, #0xff")
	if ins.Op != OpCMP || !ins.SetFlags || ins.Rn != 3 || ins.Imm != 0xff {
		t.Fatalf("cmp: %+v", ins)
	}
	ins = asmOne(t, "mvn r0, #0")
	if ins.Op != OpMVN || ins.Imm != 0 {
		t.Fatalf("mvn: %+v", ins)
	}
}

func TestAssembleShiftAliases(t *testing.T) {
	ins := asmOne(t, "lsl r0, r1, #4")
	if ins.Op != OpMOV || ins.Rm != 1 || ins.ShiftTyp != LSL || ins.ShiftAmt != 4 {
		t.Fatalf("lsl alias: %+v", ins)
	}
	ins = asmOne(t, "lsrs r0, r1, r2")
	if ins.Op != OpMOV || !ins.SetFlags || !ins.ShiftReg || ins.Rs != 2 || ins.ShiftTyp != LSR {
		t.Fatalf("lsrs alias: %+v", ins)
	}
	ins = asmOne(t, "neg r2, r3")
	if ins.Op != OpRSB || ins.Rd != 2 || ins.Rn != 3 || ins.Imm != 0 {
		t.Fatalf("neg alias: %+v", ins)
	}
}

func TestAssembleLoadStore(t *testing.T) {
	ins := asmOne(t, "ldr r0, [r1]")
	if !ins.Load || ins.Rn != 1 || !ins.PreIndex || ins.Imm != 0 {
		t.Fatalf("ldr [r1]: %+v", ins)
	}
	ins = asmOne(t, "str r0, [r1, #-8]")
	if ins.Load || ins.Up || ins.Imm != 8 || !ins.PreIndex {
		t.Fatalf("str neg: %+v", ins)
	}
	ins = asmOne(t, "ldrb r2, [r3, r4, lsl #2]!")
	if !ins.Byte || ins.HasImm || ins.Rm != 4 || ins.ShiftAmt != 2 || !ins.Writeback {
		t.Fatalf("ldrb scaled: %+v", ins)
	}
	ins = asmOne(t, "ldr r0, [r1], #4")
	if ins.PreIndex || ins.Imm != 4 || !ins.Up {
		t.Fatalf("post-index: %+v", ins)
	}
	ins = asmOne(t, "strb r5, [r6], -r7")
	if ins.PreIndex || ins.Up || ins.Rm != 7 || !ins.Byte || ins.Load {
		t.Fatalf("post reg down: %+v", ins)
	}
}

func TestAssembleLSMAndStack(t *testing.T) {
	ins := asmOne(t, "ldmia r0!, {r1-r3, r5}")
	if !ins.Load || ins.PreIndex || !ins.Up || !ins.Writeback ||
		ins.RegList != 0b101110 {
		t.Fatalf("ldmia: %+v", ins)
	}
	ins = asmOne(t, "push {r0, lr}")
	if ins.Load || !ins.PreIndex || ins.Up || ins.Rn != SP || ins.RegList != 1|1<<LR {
		t.Fatalf("push: %+v", ins)
	}
	ins = asmOne(t, "pop {r0, pc}")
	if !ins.Load || ins.PreIndex || !ins.Up || ins.RegList != 1|1<<PC {
		t.Fatalf("pop: %+v", ins)
	}
	ins = asmOne(t, "stmfd sp!, {r4-r6}")
	if ins.Load || !ins.PreIndex || ins.Up {
		t.Fatalf("stmfd: %+v", ins)
	}
}

func TestAssembleBranchesAndLabels(t *testing.T) {
	src := `
_start:
	mov r0, #0
loop:
	add r0, r0, #1
	cmp r0, #10
	bne loop
	bl fin
	b _start
fin:
	swi #0
`
	p, err := Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	words := p.Words()
	if p.Entry != 0x8000 {
		t.Errorf("entry = %#x", p.Entry)
	}
	bne := decoded(words[3], 0x8000+12)
	if bne.Class != ClassBranch || bne.Cond != NE || bne.Target() != p.Symbols["loop"] {
		t.Errorf("bne: %+v target=%#x want %#x", bne, bne.Target(), p.Symbols["loop"])
	}
	bl := decoded(words[4], 0x8000+16)
	if !bl.Link || bl.Target() != p.Symbols["fin"] {
		t.Errorf("bl: target=%#x", bl.Target())
	}
}

func TestAssembleDirectivesAndPool(t *testing.T) {
	src := `
	ldr r0, =data
	ldr r1, =0x12345678
	ldr r2, =data
	swi #0
data:
	.word 0xdeadbeef, 42
	.byte 1, 2, 3
	.align
	.space 8
tail:
	.word tail
`
	p, err := Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	sym := p.Symbols
	if sym["data"] != 0x8010 {
		t.Fatalf("data symbol = %#x", sym["data"])
	}
	// .word values.
	w := p.Words()
	dataIdx := (sym["data"] - 0x8000) / 4
	if w[dataIdx] != 0xdeadbeef || w[dataIdx+1] != 42 {
		t.Errorf("data words: %#x %#x", w[dataIdx], w[dataIdx+1])
	}
	// tail: .word tail refers to its own address.
	tailIdx := (sym["tail"] - 0x8000) / 4
	if w[tailIdx] != sym["tail"] {
		t.Errorf(".word tail = %#x want %#x", w[tailIdx], sym["tail"])
	}
	// Literal pool: simulate the ldr and verify it fetches the right values.
	check := func(word uint32, addr uint32, want uint32) {
		ins := decoded(word, addr)
		if ins.Class != ClassLoadStore || !ins.Load || ins.Rn != PC {
			t.Fatalf("not a literal load: %+v", ins)
		}
		ea := addr + 8 + ins.Imm
		if !ins.Up {
			ea = addr + 8 - ins.Imm
		}
		idx := (ea - 0x8000) / 4
		if w[idx] != want {
			t.Errorf("literal at %#x = %#x, want %#x", ea, w[idx], want)
		}
	}
	check(w[0], 0x8000, sym["data"])
	check(w[1], 0x8004, 0x12345678)
	check(w[2], 0x8008, sym["data"]) // deduped with w[0]'s literal
}

func TestAssembleLtorgMidFile(t *testing.T) {
	// Two pools: the first flushed by .ltorg, the second at end of file.
	// Identical expressions in separate pools get separate slots.
	src := `
	ldr r0, =0x11112222
	swi #0
	.ltorg
later:
	ldr r1, =0x11112222
	ldr r2, =0x33334444
	swi #0
`
	p, err := Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Words()
	resolve := func(idx int) uint32 {
		ins := decoded(w[idx], 0x8000+uint32(4*idx))
		ea := ins.Addr + 8 + ins.Imm
		if !ins.Up {
			ea = ins.Addr + 8 - ins.Imm
		}
		return w[(ea-0x8000)/4]
	}
	if resolve(0) != 0x11112222 {
		t.Errorf("pool 1 literal = %#x", resolve(0))
	}
	laterIdx := int((p.Symbols["later"] - 0x8000) / 4)
	if resolve(laterIdx) != 0x11112222 || resolve(laterIdx+1) != 0x33334444 {
		t.Errorf("pool 2 literals = %#x %#x", resolve(laterIdx), resolve(laterIdx+1))
	}
	// The first pool sits between the two code regions.
	if p.Symbols["later"] != 0x8000+12 {
		t.Errorf("later = %#x, want 0x800c (code 8 bytes + 4-byte pool)", p.Symbols["later"])
	}
}

func TestAssembleLiteralSpacing(t *testing.T) {
	// "=7" and "= 7" share one pool slot in both passes, so the label after
	// the pool lands on the code and the branch reaches it.
	src := "ldr r0, =7\nldr r1, = 7\n.ltorg\nafter: mov r2, #1\nb after\n"
	p, err := Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	if after := p.Symbols["after"]; after != 0x800c {
		t.Fatalf("after = %#x, want 0x800c (code 8 bytes + one 4-byte slot)", after)
	}
	w := p.Words()
	if len(w) != 5 || w[3] != 0xe3a02001 || w[4] != 0xeafffffd {
		t.Fatalf("words %#x, want mov r2, #1 at 0x800c and b 0x800c after it", w)
	}
}

func TestAssembleLabelArithmetic(t *testing.T) {
	src := `
	ldr r0, =tbl+8
	swi #0
tbl:
	.word 1, 2, 3, 4
`
	p, err := Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Words()
	ins := decoded(w[0], 0x8000)
	lit := w[(0x8000+8+ins.Imm-0x8000)/4]
	if lit != p.Symbols["tbl"]+8 {
		t.Errorf("tbl+8 literal = %#x, want %#x", lit, p.Symbols["tbl"]+8)
	}
}

func TestAssembleMultipleLabelsPerLine(t *testing.T) {
	p, err := Assemble("a: b: c: mov r0, #1\n swi #0\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["a"] != 0x8000 || p.Symbols["b"] != 0x8000 || p.Symbols["c"] != 0x8000 {
		t.Fatalf("stacked labels: %v", p.Symbols)
	}
}

func TestAssembleComments(t *testing.T) {
	src := `
	mov r0, #1   ; semicolon comment
	mov r1, #2   @ at comment
	mov r2, #3   // slash comment
`
	p, err := Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Words()) != 3 {
		t.Fatalf("got %d words", len(p.Words()))
	}
}

func TestAssembleErrors(t *testing.T) {
	for _, src := range []string{
		"bogus r0, r1",
		"mov r0, #0x102",                   // unencodable immediate
		"add r0, r1",                       // missing operand
		"ldr r0, [r1, r2, lsl r3]",         // register-shifted offset unsupported
		"ldm r0",                           // missing list
		"ldr r0, []",                       // no base register
		"b nowhere",                        // undefined label
		".word nolabel",                    // undefined symbol in data
		"dup: mov r0, #0\ndup: mov r0, #0", // duplicate label
	} {
		if _, err := Assemble(src, 0x8000); err == nil {
			t.Errorf("Assemble(%q) unexpectedly succeeded", src)
		} else if !strings.Contains(err.Error(), "asm: line") {
			t.Errorf("error %v lacks line info", err)
		}
	}
}

func TestAssembleCharLiteralAndAsciz(t *testing.T) {
	src := `
	mov r0, #'A'
s:
	.asciz "hi"
`
	p, err := Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	ins := decoded(p.Words()[0], 0)
	if ins.Imm != 'A' {
		t.Errorf("char imm = %d", ins.Imm)
	}
	off := p.Symbols["s"]
	if p.Bytes[off] != 'h' || p.Bytes[off+1] != 'i' || p.Bytes[off+2] != 0 {
		t.Errorf("asciz bytes: %v", p.Bytes[off:off+3])
	}
}

// Round trip: assemble → decode → disassemble → reassemble → same word.
func TestDisassembleRoundTrip(t *testing.T) {
	lines := []string{
		"add r1, r2, #10",
		"subs r0, r1, r2, lsl #3",
		"mov r4, r5, lsr r6",
		"movs r4, r5, rrx",
		"cmp r3, #255",
		"tst r1, r2",
		"mvn r0, #0",
		"mulne r2, r3, r4",
		"mla r2, r3, r4, r5",
		"ldr r0, [r1]",
		"str r0, [r1, #-8]",
		"ldrb r2, [r3, r4, lsl #2]!",
		"ldr r0, [r1], #4",
		"ldmia r0!, {r1-r3, r5}",
		"stmdb sp!, {r4, lr}",
		"swi #17",
	}
	for _, line := range lines {
		ins := asmOne(t, line)
		dis := Disassemble(ins)
		ins2 := asmOne(t, dis)
		if ins2.Raw != ins.Raw {
			t.Errorf("round trip %q -> %q: %08x != %08x", line, dis, ins.Raw, ins2.Raw)
		}
	}
}

// Branch disassembly renders absolute targets; reassembling at the same
// address gives the same word.
func TestDisassembleBranchRoundTrip(t *testing.T) {
	src := "x:\n\tb x\n\tblne x\n"
	p, err := Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range p.Words() {
		addr := 0x8000 + uint32(4*i)
		ins := decoded(w, addr)
		dis := Disassemble(&ins)
		p2, err := Assemble("x:\n\t.space "+strconv.Itoa(int(addr-0x8000))+"\n"+dis+"\n", 0x8000)
		if err != nil {
			t.Fatalf("reassemble %q: %v", dis, err)
		}
		if got := p2.Words()[int(addr-0x8000)/4]; got != w {
			t.Errorf("branch round trip %q: %08x != %08x", dis, got, w)
		}
	}
}
