// Package gen is the staged code generator of the paper's §5: it walks a
// compiled RCPN (the same net machine.Generate builds for the interpreted
// engine) and emits a self-contained Go package that simulates the model
// cycle-accurately with no net at runtime — one flattened step function per
// pipeline stage, guards inlined as plain ifs, per-operation-class dispatch
// devirtualized into direct calls, and the per-PC decode cache supplying
// the paper's partial evaluation through the shared machine runtime.
//
// The generated package implements the engine surface of the interpreted
// machines (Run/RunUntil/Drain, Checkpoint/Restore at drained boundaries,
// obsv trace/profile attachment, the batch.CheckpointStepper methods), so
// a generated simulator registers into internal/diffrun and is exercised
// by the conformance matrix, differential fuzzer and checkpoint suites
// exactly like its interpreted twin.
package gen

import (
	"fmt"
	"go/format"

	"rcpn/internal/machine"
)

// Options names the emitted package.
type Options struct {
	// Package is the emitted package name (e.g. "genpipe5").
	Package string
	// Model is the rcpngen model key recorded in the regeneration header.
	Model string
	// OutDir is the output directory recorded in the regeneration header
	// (e.g. "internal/genpipe5").
	OutDir string
}

// Generate compiles spec into one gofmt-formatted Go source file.
// Generation is deterministic: identical specs produce identical bytes.
func Generate(spec machine.Spec, opts Options) ([]byte, error) {
	if opts.Package == "" {
		return nil, fmt.Errorf("gen: empty package name")
	}
	m, err := analyze(spec)
	if err != nil {
		return nil, err
	}
	raw := emit(m, opts)
	src, err := format.Source(raw)
	if err != nil {
		return nil, fmt.Errorf("gen: emitted source does not parse: %w\n%s", err, raw)
	}
	return src, nil
}
