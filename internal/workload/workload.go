// Package workload provides the six benchmark kernels of the paper's
// evaluation — adpcm, blowfish, compress, crc, g721 and go, from MiBench,
// MediaBench and SPEC95 — as self-contained ARM7 assembly programs.
//
// The originals are C programs compiled with arm-linux-gcc; reproducing the
// exact binaries would need that toolchain and the suites' input files, so
// each kernel here reimplements the benchmark's dominant inner loops in ARM
// assembly with deterministic pseudo-random input generated in-place
// (DESIGN.md §2 documents the substitution). What matters for the paper's
// figures is the instruction mix — branchy control (go), bit-serial loops
// (crc), table-driven quantization (adpcm, g721), S-box cipher rounds
// (blowfish) and hash-table probing (compress) — and that every simulator
// executes the exact same ARM7 instruction stream.
//
// Each kernel emits one or more checksums through SWI 1 and exits through
// SWI 0; the test suite cross-checks the checksums across the ISS, both
// RCPN models and the SimpleScalar-like baseline.
package workload

import (
	"fmt"

	"rcpn/internal/arm"
)

// Workload is one benchmark kernel.
type Workload struct {
	// Name matches the paper's benchmark name.
	Name string
	// Suite is the originating benchmark suite in the paper.
	Suite string
	// source returns the assembly text for a given scale factor.
	source func(scale int) string
}

// Source returns the kernel's assembly text at the given scale
// (1 = the default evaluation size; tests use smaller scales).
func (w *Workload) Source(scale int) string {
	if scale < 1 {
		scale = 1
	}
	return w.source(scale)
}

// Program assembles the kernel at the given scale.
func (w *Workload) Program(scale int) (*arm.Program, error) {
	p, err := arm.Assemble(w.Source(scale), 0x8000)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return p, nil
}

// All returns the six kernels in the paper's Figure 10/11 order.
func All() []*Workload {
	return []*Workload{
		{Name: "adpcm", Suite: "MediaBench", source: adpcmSource},
		{Name: "blowfish", Suite: "MiBench", source: blowfishSource},
		{Name: "compress", Suite: "SPEC95", source: compressSource},
		{Name: "crc", Suite: "MiBench", source: crcSource},
		{Name: "g721", Suite: "MediaBench", source: g721Source},
		{Name: "go", Suite: "SPEC95", source: goSource},
	}
}

// kernels is the table ByName scans, built once.
var kernels = AllWithExtra()

// ByName returns the named kernel (including the extras) or nil. The
// kernel is shared by every caller, so it must not be modified.
func ByName(name string) *Workload {
	for _, w := range kernels {
		if w.Name == name {
			return w
		}
	}
	return nil
}
