// Package diffrun is the differential execution harness behind both the
// conformance matrix (conformance_test.go) and the generative fuzzer
// (cmd/rcpnfuzz): one engine registry covering every simulator in the
// repository, a runner that executes a program on the ISS golden model and
// on every registered engine — plain and through a checkpoint/restore
// handoff — and a comparator over the complete final architectural state.
// It also holds the paper's Figure 10 bars and RunCell, the one runner every
// evaluation front end times its cells through (cell.go).
//
// Reports are deterministic: engines run in registry order, divergences are
// formatted with fixed layouts, and nothing depends on wall-clock time or
// map iteration, so the same program produces a byte-identical report on
// every run (the property the fuzzer's minimizer re-checks at every step).
package diffrun

import (
	"fmt"
	"sort"
	"strings"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/bpred"
	"rcpn/internal/iss"
	"rcpn/internal/machine"
	"rcpn/internal/mem"
	"rcpn/internal/pipe5"
	"rcpn/internal/ssim"
)

// State is the comparable end-of-run architectural state: registers
// r0..r14 (r15 representations differ by simulator), the NZCV flags, a
// digest of the entire data memory, the retired-instruction count, the exit
// code and both emitted output streams.
type State struct {
	Regs    [15]uint32
	Flags   arm.Flags
	MemHash uint64
	Instret uint64
	Exit    uint32
	Output  []uint32
	Text    string
}

// StateOf captures a State from a simulator's accessors.
func StateOf(reg func(arm.Reg) uint32, flags arm.Flags, m *mem.Memory,
	instret uint64, exit uint32, output []uint32, text []byte) State {
	s := State{
		Flags:   flags,
		MemHash: m.Digest(),
		Instret: instret,
		Exit:    exit,
		Output:  output,
		Text:    string(text),
	}
	for r := 0; r < 15; r++ {
		s.Regs[r] = reg(arm.Reg(r))
	}
	return s
}

// Diff returns one line per field where s differs from the golden state,
// in a fixed order; an empty slice means the states match bit-for-bit.
func (s State) Diff(golden State) []string {
	var out []string
	for r, v := range s.Regs {
		if v != golden.Regs[r] {
			out = append(out, fmt.Sprintf("r%d = %#x, iss %#x", r, v, golden.Regs[r]))
		}
	}
	if s.Flags != golden.Flags {
		out = append(out, fmt.Sprintf("flags %+v, iss %+v", s.Flags, golden.Flags))
	}
	if s.MemHash != golden.MemHash {
		out = append(out, fmt.Sprintf("memory digest %#x, iss %#x", s.MemHash, golden.MemHash))
	}
	if s.Instret != golden.Instret {
		out = append(out, fmt.Sprintf("instret %d, iss %d", s.Instret, golden.Instret))
	}
	if s.Exit != golden.Exit {
		out = append(out, fmt.Sprintf("exit %d, iss %d", s.Exit, golden.Exit))
	}
	if len(s.Output) != len(golden.Output) {
		out = append(out, fmt.Sprintf("%d output words, iss %d", len(s.Output), len(golden.Output)))
	} else {
		for i := range s.Output {
			if s.Output[i] != golden.Output[i] {
				out = append(out, fmt.Sprintf("output[%d] = %#x, iss %#x", i, s.Output[i], golden.Output[i]))
			}
		}
	}
	if s.Text != golden.Text {
		out = append(out, fmt.Sprintf("text stream differs (%d bytes vs %d)", len(s.Text), len(golden.Text)))
	}
	return out
}

// Config is the microarchitecture a caller may override: the cache
// hierarchy and the branch predictor. The zero value selects the engine's
// defaults; functional engines ignore it.
type Config struct {
	Caches    mem.Hierarchy
	Predictor bpred.Predictor
}

// Engine is one registry row, and the only place the repository
// enumerates an engine: every front end (the service, the CLIs, tpar,
// the conformance matrix and the fuzzer) resolves engines by name here.
type Engine struct {
	Name string
	// New constructs a fresh instance on a program under cfg and returns
	// the simulator itself as a checkpointable stepper, plus a closure
	// extracting the instance's final architectural state.
	New func(p *arm.Program, cfg Config) (batch.CheckpointStepper, func() State, error)
	// Warm returns fresh units with the engine's default cache and
	// predictor geometry, for an ISS leader whose warm checkpoints must
	// restore into the engine (tpar). Nil for functional engines.
	Warm func() Config
	// Functional marks instruction-positioned engines that take no Config.
	Functional bool
}

// Build constructs a fresh instance with the engine's default
// configuration.
func (e Engine) Build(p *arm.Program) (batch.CheckpointStepper, func() State, error) {
	return e.New(p, Config{})
}

// Engines returns the full registry: the ISS golden model, the functional
// RCPN machine, the three generated cycle-accurate machines, the
// hand-written five-stage pipeline, the SimpleScalar-like baseline and the
// registered generated simulators. Adding an engine here — or registering
// one with Register — reaches every front end at once.
func Engines() []Engine {
	return append(builtinEngines(), registered...)
}

// Lookup returns the registry row named name.
func Lookup(name string) (Engine, bool) {
	for _, e := range Engines() {
		if e.Name == name {
			return e, true
		}
	}
	return Engine{}, false
}

// Names lists the registry's engine names in registry order.
func Names() []string {
	var names []string
	for _, e := range Engines() {
		names = append(names, e.Name)
	}
	return names
}

// registered holds engines added by Register, in registration order.
var registered []Engine

// Register adds an engine to the registry behind the built-in rows. It is
// meant to be called from init functions (generated simulators register
// themselves this way). Names must be unique across the whole registry.
func Register(e Engine) {
	if e.Name == "" || e.New == nil {
		panic("diffrun: Register: engine needs a name and a constructor")
	}
	if _, dup := Lookup(e.Name); dup {
		panic("diffrun: Register: duplicate engine name " + e.Name)
	}
	registered = append(registered, e)
}

// warmUnits adapts a model's default-unit filler to Engine.Warm.
func warmUnits(fill func(*machine.Config)) func() Config {
	return func() Config {
		var c machine.Config
		fill(&c)
		return Config{Caches: c.Caches, Predictor: c.Predictor}
	}
}

func machineState(m *machine.Machine) func() State {
	return func() State {
		return StateOf(m.Reg, m.Flags(), m.Mem, m.Instret, m.ExitCode, m.Output, m.Text)
	}
}

// machineEngine is the row of an RCPN model built by lowering spec through
// machine.Generate, with units filling the non-pipeline units a run leaves
// unset.
func machineEngine(name string, spec machine.Spec, units func(*machine.Config)) Engine {
	return Engine{Name: name, Warm: warmUnits(units),
		New: func(p *arm.Program, cfg Config) (batch.CheckpointStepper, func() State, error) {
			mc := machine.Config{Caches: cfg.Caches, Predictor: cfg.Predictor}
			units(&mc)
			m, err := machine.Generate(p, spec, mc)
			if err != nil {
				return nil, nil, err
			}
			return m, machineState(m), nil
		}}
}

func builtinEngines() []Engine {
	return []Engine{
		{Name: "iss", Functional: true, New: func(p *arm.Program, _ Config) (batch.CheckpointStepper, func() State, error) {
			c := iss.New(p, 0)
			return c, func() State {
				return StateOf(func(r arm.Reg) uint32 { return c.R[r] },
					c.F, c.Mem, c.Instret, c.Exit, c.Output, c.Text)
			}, nil
		}},
		{Name: "func", Functional: true, New: func(p *arm.Program, _ Config) (batch.CheckpointStepper, func() State, error) {
			m := machine.NewFunctional(p, machine.Config{})
			return m, machineState(m), nil
		}},
		machineEngine("strongarm", machine.StrongARMSpec(), machine.StrongARMUnits),
		machineEngine("xscale", machine.XScaleSpec(), machine.XScaleUnits),
		machineEngine("arm9", machine.ARM9Spec(), machine.StrongARMUnits),
		{Name: "pipe5", Warm: warmUnits(machine.StrongARMUnits),
			New: func(p *arm.Program, cfg Config) (batch.CheckpointStepper, func() State, error) {
				s := pipe5.New(p, pipe5.Config{Caches: cfg.Caches, Predictor: cfg.Predictor})
				return s, func() State {
					return StateOf(func(r arm.Reg) uint32 { return s.R[r] },
						s.F, s.Mem, s.Instret, s.ExitCode, s.Output, s.Text)
				}, nil
			}},
		{Name: "ssim", Warm: warmUnits(machine.StrongARMUnits),
			New: func(p *arm.Program, cfg Config) (batch.CheckpointStepper, func() State, error) {
				s := ssim.New(p, ssim.Config{Caches: cfg.Caches, Predictor: cfg.Predictor})
				return s, func() State {
					return StateOf(s.Reg, s.Flags(), s.Mem(), s.Instret, s.ExitCode(), s.Output(), s.Text())
				}, nil
			}},
	}
}

// WithProgramMutation wraps e so every built instance executes a mutated
// copy of the program image while the golden model sees the original — a
// test-only hook for planting a deterministic "engine bug" (e.g. a decode
// defect that drops MLA's accumulate bit) and proving the fuzzer catches
// and minimizes it. mutate receives the image words and edits them in
// place.
func (e Engine) WithProgramMutation(mutate func(words []uint32)) Engine {
	inner := e.New
	e.New = func(p *arm.Program, cfg Config) (batch.CheckpointStepper, func() State, error) {
		words := p.Words()
		mutate(words)
		bytes := make([]byte, len(p.Bytes))
		copy(bytes, p.Bytes)
		for i, w := range words {
			bytes[4*i] = byte(w)
			bytes[4*i+1] = byte(w >> 8)
			bytes[4*i+2] = byte(w >> 16)
			bytes[4*i+3] = byte(w >> 24)
		}
		p2 := &arm.Program{Base: p.Base, Entry: p.Entry, Bytes: bytes, Symbols: p.Symbols}
		return inner(p2, cfg)
	}
	return e
}

const errNotFinished = "position limit reached without exit (engine hang?)"

// minCkptInstret is the golden retirement count below which Run skips the
// checkpointed variants (see Run).
const minCkptInstret = 128

// RunPlain runs a fresh instance of e to completion, bounded by posLimit
// (cycles or instructions, whichever the engine counts).
func RunPlain(e Engine, p *arm.Program, posLimit int64) (State, error) {
	st, state, err := e.Build(p)
	if err != nil {
		return State{}, err
	}
	if err := Finish(st, posLimit); err != nil {
		return State{}, err
	}
	return state(), nil
}

// Finish steps st to program exit within posLimit (cycles or instructions,
// whichever the engine counts); stopping at the limit is an error.
func Finish(st batch.Stepper, posLimit int64) error {
	done, err := st.StepTo(posLimit)
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("%s", errNotFinished)
	}
	return nil
}

// RunCheckpointed runs to a drained boundary at the given retirement count,
// snapshots, restores into a completely fresh instance, and finishes there
// — the cross-instance handoff every engine's checkpoint support must
// survive. A program that exits before the boundary is returned as-is.
func RunCheckpointed(e Engine, p *arm.Program, boundary uint64, posLimit int64) (State, error) {
	st, state, err := e.Build(p)
	if err != nil {
		return State{}, err
	}
	done, err := st.StepToRetired(boundary, posLimit)
	if err != nil {
		return State{}, err
	}
	if done {
		return state(), nil
	}
	if err := st.DrainBoundary(); err != nil {
		return State{}, err
	}
	ck, err := st.Checkpoint()
	if err != nil {
		return State{}, err
	}
	st2, state2, err := e.Build(p)
	if err != nil {
		return State{}, err
	}
	if err := st2.Restore(ck); err != nil {
		return State{}, err
	}
	if err := Finish(st2, posLimit); err != nil {
		return State{}, err
	}
	return state2(), nil
}

// Options configure a differential run.
type Options struct {
	// Engines to compare against the ISS golden model (default Engines()).
	Engines []Engine
	// MaxInstrs bounds the golden ISS run (default 5M). A program that does
	// not exit within it is a generator bug, reported as an error.
	MaxInstrs uint64
	// PosLimit bounds every engine run in its own position unit; 0 derives
	// a generous limit from the golden instruction count, so a hanging
	// engine surfaces as a divergence instead of a stuck process.
	PosLimit int64
	// CkptBoundary is where the checkpointed variants snapshot; 0 places it
	// at half the golden retirement count.
	CkptBoundary uint64
}

// Divergence is one engine variant that failed to reproduce the golden
// state.
type Divergence struct {
	Engine  string // registry name
	Variant string // "plain" or "ckpt"
	Err     string // run error (hang, internal failure); empty for state mismatches
	Lines   []string
}

// Result is the outcome of one differential run.
type Result struct {
	Golden      State
	Divergences []Divergence
}

// Clean reports whether every engine reproduced the golden state.
func (r Result) Clean() bool { return len(r.Divergences) == 0 }

// Signature is a stable fingerprint of the divergence set, used by the
// minimizer to confirm a candidate still fails the same way and by the
// determinism re-check.
func (r Result) Signature() string {
	var parts []string
	for _, d := range r.Divergences {
		key := d.Err
		if key == "" {
			key = strings.Join(d.Lines, "; ")
		}
		parts = append(parts, d.Engine+"/"+d.Variant+": "+key)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

// Report renders the result deterministically.
func (r Result) Report() string {
	var b strings.Builder
	if r.Clean() {
		b.WriteString("ok: all engines match the ISS golden state\n")
		return b.String()
	}
	fmt.Fprintf(&b, "DIVERGENCE: %d engine variant(s) differ from the ISS golden state\n", len(r.Divergences))
	for _, d := range r.Divergences {
		fmt.Fprintf(&b, "  %s+%s:\n", d.Engine, d.Variant)
		if d.Err != "" {
			fmt.Fprintf(&b, "    error: %s\n", d.Err)
			continue
		}
		for _, l := range d.Lines {
			fmt.Fprintf(&b, "    %s\n", l)
		}
	}
	return b.String()
}

// Run executes p on the golden model and every engine variant and returns
// the comparison. An error means the golden run itself failed (undefined
// instruction, runaway program) — a property of the input, not an engine
// divergence.
func Run(p *arm.Program, opt Options) (Result, error) {
	engines := opt.Engines
	if engines == nil {
		engines = Engines()
	}
	maxInstrs := opt.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = 5_000_000
	}
	golden := iss.New(p, 0)
	golden.MaxInstrs = maxInstrs
	if err := golden.Run(); err != nil {
		return Result{}, fmt.Errorf("golden iss: %w", err)
	}
	res := Result{Golden: StateOf(func(r arm.Reg) uint32 { return golden.R[r] },
		golden.F, golden.Mem, golden.Instret, golden.Exit, golden.Output, golden.Text)}

	posLimit := opt.PosLimit
	if posLimit == 0 {
		// Generous: no engine spends anywhere near 64 cycles per retired
		// instruction on these workloads, so crossing this means a hang.
		posLimit = int64(res.Golden.Instret)*64 + 1_000_000
	}
	boundary := opt.CkptBoundary
	if boundary == 0 {
		boundary = res.Golden.Instret / 2
	}
	// The checkpointed variant is skipped for very short programs (unless the
	// caller pinned a boundary): with the boundary only a handful of
	// instructions from exit, an engine's drain can complete the program
	// before reaching a checkpointable window — a harness artifact, not an
	// engine bug — and the minimizer would otherwise happily shrink real
	// divergences into that artifact.
	runCkpt := opt.CkptBoundary != 0 || res.Golden.Instret >= minCkptInstret

	for _, e := range engines {
		if got, err := RunPlain(e, p, posLimit); err != nil {
			res.Divergences = append(res.Divergences,
				Divergence{Engine: e.Name, Variant: "plain", Err: err.Error()})
		} else if lines := got.Diff(res.Golden); len(lines) > 0 {
			res.Divergences = append(res.Divergences,
				Divergence{Engine: e.Name, Variant: "plain", Lines: lines})
		}
		if !runCkpt {
			continue
		}
		if got, err := RunCheckpointed(e, p, boundary, posLimit); err != nil {
			res.Divergences = append(res.Divergences,
				Divergence{Engine: e.Name, Variant: "ckpt", Err: err.Error()})
		} else if lines := got.Diff(res.Golden); len(lines) > 0 {
			res.Divergences = append(res.Divergences,
				Divergence{Engine: e.Name, Variant: "ckpt", Lines: lines})
		}
	}
	return res, nil
}
