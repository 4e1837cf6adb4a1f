package arm_test

// Assemble against the reference assembler it replaced (asmref_test.go) on
// every program the repository assembles: the kernels and extras at three
// scales, a band of fuzzer-generated programs and every source in
// asm_test.go. Lives in arm_test because workload and armgen depend on arm.

import (
	"fmt"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/armgen"
	"rcpn/internal/workload"
)

func TestAssembleMatchesReference(t *testing.T) {
	check := func(name, src string) {
		t.Helper()
		if err := arm.DiffAssemble(src, 0x8000); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, w := range workload.AllWithExtra() {
		for scale := 1; scale <= 3; scale++ {
			check(fmt.Sprintf("%s@%d", w.Name, scale), w.Source(scale))
		}
	}
	for seed := 1; seed <= 100; seed++ {
		p, err := armgen.Generate(armgen.Config{Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("armgen seed %d", seed), p.Source)
	}
	for i, src := range arm.AsmTestSources(t) {
		check(fmt.Sprintf("asm_test.go literal %d %q", i, src), src)
		check(fmt.Sprintf("asm_test.go line %d %q", i, src), src+"\n")
	}
}
