package arm_test

// Disassemble → reassemble round-trip, driven by the fuzzer's generator:
// for every instruction word of every generated program, feeding its
// disassembly back through the assembler must reproduce the word exactly.
// The generator is the right driver because it exercises the encodable
// surface the disassembler has to render faithfully — all shifter operands,
// long multiplies, signed/halfword transfers, block transfers with
// writeback, conditional execution — rather than the handful of mnemonics
// the workload kernels use. (The package-external import is why this test
// lives in arm_test: armgen depends on arm.)

import (
	"fmt"
	"strings"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/armgen"
)

func TestDisasmReassembleRoundTrip(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 5
	}
	checked := 0
	for seed := 1; seed <= seeds; seed++ {
		p, err := armgen.Generate(armgen.Config{Seed: uint64(seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, w := range p.Image.Words() {
			addr := p.Image.Base + uint32(4*i)
			ins := decoded(w, addr)
			if ins.Undefined() {
				t.Fatalf("seed %d: generator emitted undefined word %#08x at %#x", seed, w, addr)
			}
			text := arm.Disassemble(&ins)
			// Assemble the single line at the word's own address so
			// PC-relative branch offsets survive the round trip.
			src := fmt.Sprintf("_start:\n\t%s\n", text)
			rp, err := arm.Assemble(src, addr)
			if err != nil {
				t.Fatalf("seed %d: %#08x at %#x disassembles to unparseable %q: %v",
					seed, w, addr, text, err)
			}
			words := rp.Words()
			if len(words) != 1 {
				t.Fatalf("seed %d: %q assembled to %d words", seed, text, len(words))
			}
			if words[0] != w {
				t.Fatalf("seed %d: round trip broke at %#x:\n  original %#08x\n  disasm   %q\n  reasm    %#08x",
					seed, addr, w, text, words[0])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no instructions checked")
	}
	t.Logf("%d instruction words round-tripped", checked)
}

// TestDisasmReassembleBranchLabels covers the one construct the per-word
// round trip can't: branches disassemble to absolute targets, which the
// assembler accepts as literal addresses. A label-written branch and its
// disassembled absolute form must encode identically.
func TestDisasmReassembleBranchLabels(t *testing.T) {
	src := "_start:\n\tb done\n\tmov r0, #1\ndone:\n\tswi #0\n"
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Words()[0]
	ins := decoded(w, p.Base)
	text := arm.Disassemble(&ins)
	if !strings.HasPrefix(text, "b") {
		t.Fatalf("expected a branch, got %q", text)
	}
	rp, err := arm.Assemble("_start:\n\t"+text+"\n", p.Base)
	if err != nil {
		t.Fatalf("disassembled branch %q does not reassemble: %v", text, err)
	}
	if got := rp.Words()[0]; got != w {
		t.Fatalf("branch round trip: %#08x -> %q -> %#08x", w, text, got)
	}
}

// decoded returns the decoding of raw fetched from addr.
func decoded(raw, addr uint32) arm.Instr {
	var ins arm.Instr
	ins.Decode(raw, addr)
	return ins
}
