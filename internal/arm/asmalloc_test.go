package arm_test

import (
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/workload"
)

// assembleAllocsBound bounds the allocations of one Assemble of each kernel
// at scale 1, about 1.5 times what it measures (15–27). Allocations grow
// with the program's labels and literal pools, not with its lines; an
// assembler that allocates per line or per operand list (123–460) fails
// every row.
var assembleAllocsBound = map[string]float64{
	"adpcm": 30, "blowfish": 36, "compress": 40, "crc": 23, "g721": 36, "go": 39,
}

// TestAssembleAllocs is the assembler's allocation gate. The race
// detector allocates on its own behalf, so race builds skip it.
func TestAssembleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, w := range workload.All() {
		src := w.Source(1)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := arm.Assemble(src, 0x8000); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per Assemble", w.Name, allocs)
		if allocs > assembleAllocsBound[w.Name] {
			t.Errorf("%s: Assemble allocates %.0f times, bound %.0f", w.Name, allocs, assembleAllocsBound[w.Name])
		}
	}
}
