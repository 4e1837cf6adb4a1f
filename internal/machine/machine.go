// Package machine contains the RCPN processor models of the paper's
// evaluation — StrongARM (simple five-stage pipeline) and XScale (in-order
// issue, out-of-order completion, Fig. 9) — executing the ARM7 instruction
// set through six operation-class sub-nets, plus the shared fetch,
// speculation, system-call and statistics plumbing every model needs.
//
// A Machine is the paper's "generated simulator": the model file
// (strongarm.go / xscale.go) declares stages, places and transitions that
// mirror the processor's pipeline block diagram; internal/core executes them
// with the optimized engine.
package machine

import (
	"fmt"

	"rcpn/internal/arm"
	"rcpn/internal/bpred"
	"rcpn/internal/core"
	"rcpn/internal/mem"
	"rcpn/internal/obsv"
	"rcpn/internal/reg"
)

// Config selects the non-pipeline units and simulator options of a model.
type Config struct {
	// Caches supplies the I/D cache timing models; zero value means the
	// model's defaults.
	Caches mem.Hierarchy
	// Predictor is the branch predictor; nil means the model's default.
	Predictor bpred.Predictor
	// StackTop initializes sp (0 = 0x00400000).
	StackTop uint32

	// NoTokenCache disables the per-PC decoded-token cache (ablation of the
	// paper's partial-evaluation/caching optimization).
	NoTokenCache bool
	// TwoListAll forces the two-list algorithm on every place (ablation of
	// the reverse-topological-order optimization).
	TwoListAll bool
	// DynamicSearch disables the static sorted-transitions table (ablation
	// of the Fig. 6 optimization).
	DynamicSearch bool
	// NoActiveList disables event-driven place scheduling, restoring the
	// full reverse-topological sweep every cycle (ablation of the
	// active-list optimization; bit-identical timing).
	NoActiveList bool
}

// Ablation is one named engine configuration of the §4/§5 ablation study.
type Ablation struct {
	Name   string
	Config Config
}

// Ablations lists the ablation study's configurations, the full engine
// first: the rows of BenchmarkAblation and `experiments -fig ablation`.
func Ablations() []Ablation {
	return []Ablation{
		{"full-engine", Config{}},
		{"activeList=off", Config{NoActiveList: true}},
		{"pool=off", Config{NoTokenCache: true}},
		{"activeList=off,pool=off", Config{NoActiveList: true, NoTokenCache: true}},
		{"dynamic-search", Config{DynamicSearch: true}},
		{"two-list-everywhere", Config{TwoListAll: true}},
		{"all-off", Config{NoTokenCache: true, DynamicSearch: true, TwoListAll: true, NoActiveList: true}},
	}
}

// Machine is a processor model plus its architected and simulation state.
type Machine struct {
	Name string
	Net  *core.Net
	Mem  *mem.Memory

	GPR    *reg.File // r0..r14 (+ a scratch cell for r15)
	PSRF   *reg.File // one cell: packed NZCV
	regs   [16]*reg.Register
	psrReg *reg.Register

	ICache *mem.Cache
	DCache *mem.Cache
	Pred   bpred.Predictor

	// Fetch state.
	pc        uint32
	seq       uint64
	fetchHold *Inst // serializing instruction (SWI) holding fetch
	holdFetch bool  // front end paused while draining to a checkpoint boundary

	// Program results (must match the ISS golden model).
	Output   []uint32
	Text     []byte
	Exited   bool
	ExitCode uint32
	Instret  uint64 // architecturally retired instructions
	Err      error

	// Flushes counts pipeline flushes (mispredictions + PC writes).
	Flushes uint64

	cfg    Config
	tracer *Tracer
	// Observability attachments (obsv.go); nil unless enabled.
	prof       *obsv.StallProfile
	funcTracer *obsv.Tracer // functional mode's retire-only event trace
	// functional marks a model running in extracted-functional mode
	// (NewFunctional): program-order execution with no net or timing.
	functional bool
	// tokens arena-allocates every Inst token out of contiguous blocks, so
	// the in-flight window's scheduling state shares cache lines instead of
	// being pointer-chased across the heap.
	tokens core.TokenArena
	// pool holds per-PC freelists of decoded instruction instances: a
	// direct-mapped array over the program's text range (fast path) with a
	// map fallback for addresses outside it.
	poolBase  uint32
	pool      [][]*Inst
	poolExtra map[uint32][]*Inst
	entry     uint32
	// flushScratch is reused across flushes so squashing allocates nothing.
	flushScratch []*core.Token
	// genFlush, when set (SetGenFlush), squashes young instructions out of a
	// generated simulator's latches in place of the net walk.
	genFlush func(youngerThan uint64) []*Inst

	classNames []string
}

// packFlags packs NZCV into the PSR cell representation.
func packFlags(f arm.Flags) uint32 {
	var v uint32
	if f.N {
		v |= 8
	}
	if f.Z {
		v |= 4
	}
	if f.C {
		v |= 2
	}
	if f.V {
		v |= 1
	}
	return v
}

func unpackFlags(v uint32) arm.Flags {
	return arm.Flags{N: v&8 != 0, Z: v&4 != 0, C: v&2 != 0, V: v&1 != 0}
}

// newMachine builds the model-independent parts.
func newMachine(name string, p *arm.Program, cfg Config, defaults func(*Config)) *Machine {
	defaults(&cfg)
	if cfg.StackTop == 0 {
		cfg.StackTop = 0x00400000
	}
	m := &Machine{
		Name:      name,
		Mem:       mem.New(),
		GPR:       reg.NewFile("gpr", 16),
		PSRF:      reg.NewFile("psr", 1),
		ICache:    cfg.Caches.I,
		DCache:    cfg.Caches.D,
		Pred:      cfg.Predictor,
		cfg:       cfg,
		poolBase:  p.Base,
		pool:      make([][]*Inst, (len(p.Bytes)+4)/4),
		poolExtra: map[uint32][]*Inst{},
		entry:     p.Entry,
		classNames: []string{
			"DataProc", "Mult", "LoadStore", "LoadStoreM", "Branch", "System",
		},
	}
	for i := 0; i < 16; i++ {
		m.regs[i] = m.GPR.Register(arm.Reg(i).String(), i)
	}
	m.psrReg = m.PSRF.Register("cpsr", 0)
	m.Mem.LoadImage(p.Base, p.Bytes)
	m.regs[arm.SP].Set(cfg.StackTop)
	m.pc = p.Entry
	return m
}

// Flags returns the current architected NZCV flags.
func (m *Machine) Flags() arm.Flags { return unpackFlags(m.psrReg.Value()) }

// Reg returns the architected value of register r (r15 returns the fetch PC).
func (m *Machine) Reg(r arm.Reg) uint32 {
	if r == arm.PC {
		return m.pc
	}
	return m.regs[r].Value()
}

// PC returns the current (speculative) fetch program counter.
func (m *Machine) PC() uint32 { return m.pc }

// CPI returns cycles per retired instruction.
func (m *Machine) CPI() float64 {
	if m.Instret == 0 {
		return 0
	}
	return float64(m.Net.CycleCount()) / float64(m.Instret)
}

// halted reports whether simulation can stop: the program has exited AND
// every older in-flight instruction has written back. The second clause
// makes traps precise on machines that complete out of order — XScale's
// separate memory pipe can hold a cache-missing load for dozens of cycles
// while the SWI commits through the ALU pipe, and stopping on Exited alone
// would lose that load's architected writeback (and its retirement count).
// Short-circuit keeps the Drained sweep off the hot path.
func (m *Machine) halted() bool {
	return m.Exited && m.Drained()
}

// Run simulates until the program exits (and the pipeline drains), an error
// occurs, or maxCycles elapses (0 = 1<<40).
func (m *Machine) Run(maxCycles int64) error {
	if maxCycles <= 0 {
		maxCycles = 1 << 40
	}
	for !m.halted() {
		if m.Net.CycleCount() >= maxCycles {
			return fmt.Errorf("%s: cycle limit %d exceeded at pc=%#08x", m.Name, maxCycles, m.pc)
		}
		m.Net.Step()
		if m.tracer != nil {
			m.tracer.snap()
		}
		if m.Err != nil {
			return m.Err
		}
	}
	return nil
}

// Dot renders the model's RCPN in Graphviz format.
func (m *Machine) Dot() string { return m.Net.Dot(m.classNames) }

// fail records a fatal simulation error (undefined instruction, unknown
// system call) surfaced out of transition actions.
func (m *Machine) fail(format string, args ...any) {
	if m.Err == nil {
		m.Err = fmt.Errorf(m.Name+": "+format, args...)
	}
}

// fetchOne is the body of the fetch source transition: read and decode (or
// reuse) the instruction at the fetch PC, consult the branch predictor, and
// advance the speculative PC. It returns nil while fetch is serialized
// behind an in-flight SWI.
func (m *Machine) fetchOne() *core.Token {
	if m.Exited || m.fetchHold != nil || m.holdFetch {
		return nil
	}
	addr := m.pc
	lat := int64(1)
	if m.ICache != nil {
		lat = int64(m.ICache.Access(addr))
	}
	in := m.decode(addr)
	m.seq++
	in.Seq = m.seq

	next := addr + 4
	if in.I.Class == arm.ClassBranch && m.Pred != nil {
		taken, target, known := m.Pred.Predict(addr)
		if taken && known {
			next = target
		}
	}
	in.predNext = next
	m.pc = next

	if in.I.Class == arm.ClassSystem ||
		(in.writesPC && (in.I.Class == arm.ClassLoadStore || in.I.Class == arm.ClassLoadStoreM)) {
		// Traps serialize the front end until they retire; PC loads resolve
		// so late (after the memory access) that younger speculative work
		// could commit out of order first, so they serialize fetch too.
		m.fetchHold = in
	}
	in.Tok.Delay = lat
	return in.Tok
}

// retire is installed as the net's OnRetire callback: count architected
// completion and recycle the token+instruction instance into the per-PC pool
// ("the tokens are cached for later reuse in the simulator", §5).
func (m *Machine) retire(tok *core.Token) {
	in := tok.Data.(*Inst)
	m.Instret++
	if m.fetchHold == in {
		m.fetchHold = nil
	}
	m.recycle(in)
}

func (m *Machine) recycle(in *Inst) {
	in.inUse = false
	if m.cfg.NoTokenCache {
		// The instance is dropped, so return its arena slot — otherwise a
		// long uncached run would grow the token arena without bound.
		if in.Tok != nil {
			m.tokens.Put(in.Tok)
			in.Tok = nil
		}
		return
	}
	if i := (in.I.Addr - m.poolBase) / 4; uint64(i) < uint64(len(m.pool)) {
		m.pool[i] = append(m.pool[i], in)
		return
	}
	m.poolExtra[in.I.Addr] = append(m.poolExtra[in.I.Addr], in)
}

// poolGet pops a cached decoded instance for addr, or nil.
func (m *Machine) poolGet(addr uint32) *Inst {
	if i := (addr - m.poolBase) / 4; uint64(i) < uint64(len(m.pool)) {
		list := m.pool[i]
		if n := len(list); n > 0 {
			in := list[n-1]
			m.pool[i] = list[:n-1]
			return in
		}
		return nil
	}
	if list := m.poolExtra[addr]; len(list) > 0 {
		in := list[len(list)-1]
		m.poolExtra[addr] = list[:len(list)-1]
		return in
	}
	return nil
}

// flushAfter squashes every in-flight instruction younger than seq,
// releasing their register/flag reservations, and redirects fetch to newPC.
// It implements the "flushing latches" alternative of §3.2 generalized to
// the whole pipeline behind a resolved control transfer.
func (m *Machine) flushAfter(seq uint64, newPC uint32) {
	m.Flushes++
	if m.genFlush != nil {
		for _, in := range m.genFlush(seq) {
			in.releaseLocks()
			in.SetState(-1)
			if m.fetchHold == in {
				m.fetchHold = nil
			}
			m.recycle(in)
		}
		m.pc = newPC
		return
	}
	victims := m.flushScratch[:0]
	for _, p := range m.Net.Places() {
		p.ForEachToken(func(tok *core.Token) {
			in, ok := tok.Data.(*Inst)
			if ok && in.Seq > seq {
				victims = append(victims, tok)
			}
		})
	}
	m.flushScratch = victims
	for _, tok := range victims {
		in := tok.Data.(*Inst)
		m.Net.RemoveToken(tok)
		in.releaseLocks()
		if m.fetchHold == in {
			m.fetchHold = nil
		}
		m.recycle(in)
	}
	m.pc = newPC
}

// syscall performs the architected effect of a SWI at its commit point.
func (m *Machine) syscall(in *Inst) {
	switch in.I.SWINum {
	case arm.SysExit:
		m.Exited = true
		m.ExitCode = in.src1.Value()
	case arm.SysEmit:
		m.Output = append(m.Output, in.src1.Value())
	case arm.SysPutc:
		m.Text = append(m.Text, byte(in.src1.Value()))
	default:
		m.fail("unknown syscall %d at %#08x", in.I.SWINum, in.I.Addr)
	}
}

// applyAblation applies the engine-level ablation switches before Build.
func (m *Machine) applyAblation() {
	if m.cfg.TwoListAll {
		for _, p := range m.Net.Places() {
			if !p.End {
				p.TwoList = true
			}
		}
	}
	if m.cfg.DynamicSearch {
		m.Net.SetDynamicSearch(true)
	}
	if m.cfg.NoActiveList {
		m.Net.SetFullSweep(true)
	}
}
