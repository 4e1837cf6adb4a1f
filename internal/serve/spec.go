// Package serve is the simulation-as-a-service layer: an embeddable
// net/http server that accepts canonical JSON job specs, deduplicates them
// by content address, queues them into a bounded internal/batch worker
// pool, and exposes job state, live progress (SSE), metrics and a graceful
// drain protocol. cmd/rcpnserve is the thin binary around it.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/bpred"
	"rcpn/internal/diffrun"
	"rcpn/internal/mem"
	"rcpn/internal/workload"
)

// CacheSpec overrides one cache's geometry and timing. All fields are
// required when the spec is present (a partial override would silently
// inherit surprising defaults).
type CacheSpec struct {
	Sets        int `json:"sets"`
	Ways        int `json:"ways"`
	LineBytes   int `json:"line_bytes"`
	HitLatency  int `json:"hit_latency"`
	MissLatency int `json:"miss_latency"`
}

func (c *CacheSpec) cache(name string) (*mem.Cache, error) {
	return mem.NewCache(mem.CacheConfig{Name: name, Sets: c.Sets, Ways: c.Ways,
		LineBytes: c.LineBytes, HitLatency: c.HitLatency, MissLatency: c.MissLatency})
}

// SimConfig is the tunable microarchitecture subset a job may override.
// Each unit it leaves unset takes the simulator's default.
type SimConfig struct {
	ICache *CacheSpec `json:"icache,omitempty"`
	DCache *CacheSpec `json:"dcache,omitempty"`
	// Bpred selects the branch predictor: "" (model default), "nottaken",
	// or "bimodal:N" with N a power-of-two entry count.
	Bpred string `json:"bpred,omitempty"`
}

func (c SimConfig) isZero() bool {
	return c.ICache == nil && c.DCache == nil && c.Bpred == ""
}

// JobSpec is the canonical request body of POST /v1/jobs. Exactly one of
// Kernel (a built-in benchmark) and Source (inline ARM assembly) must be
// set. After Normalize, marshaling the spec yields its canonical bytes:
// the SHA-256 of those bytes is the job's content address, so two requests
// that mean the same job — regardless of field order, whitespace or
// defaulted fields — collapse to one id, one queue slot and one cached
// result.
type JobSpec struct {
	Simulator string `json:"simulator"`
	Kernel    string `json:"kernel,omitempty"`
	Source    string `json:"source,omitempty"`
	Scale     int    `json:"scale"`
	// MaxCycles caps the run (instructions for func/iss); 0 means the
	// server's default cap.
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// CheckpointInterval, when nonzero, makes the job crash-safe: the worker
	// drains the simulator and captures an RCPNCKPT checkpoint every
	// CheckpointInterval retired instructions, so a killed server resumes
	// the job from the last boundary instead of restarting it. The drains
	// insert pipeline bubbles that perturb cycle-level timing, which is why
	// the interval is part of the spec (and so of the content address): the
	// result is a deterministic function of (spec, interval), not of whether
	// a crash happened.
	CheckpointInterval uint64 `json:"checkpoint_interval,omitempty"`
	// Profile enables per-stage stall attribution: the result embeds the
	// job's StallProfile snapshot under "stalls". Part of the spec (and of
	// the content address) because the result bytes differ, even though the
	// simulated outcome does not.
	Profile bool `json:"profile,omitempty"`
	// TraceEvents, when nonzero, attaches a bounded ring tracer of that
	// many events; the Chrome trace_event JSON of the run's tail is served
	// at GET /v1/jobs/{id}/trace.
	TraceEvents int `json:"trace_events,omitempty"`
	// Parallelism, when > 1, runs the job time-parallel (internal/tpar):
	// the run is split into Parallelism segments at drained instruction
	// boundaries and simulated concurrently from ISS-warmed checkpoints.
	// The segment boundaries drain the pipeline and perturb cycle timing
	// exactly as checkpoint_interval does, so the field is part of the
	// content address; omitempty (with 1 normalized to 0) keeps every
	// pre-existing address unchanged. The worker count is NOT part of the
	// spec — the result is independent of it.
	Parallelism int `json:"parallelism,omitempty"`
	// ParallelMode selects the stitch discipline for parallel jobs:
	// "" or "exact" (normalized to "", byte-identical to the serial
	// segmented run) or "sampled" (warmup-biased segments accepted, CPI
	// error bound reported in the result extras).
	ParallelMode string    `json:"parallel_mode,omitempty"`
	Config       SimConfig `json:"config"`

	// prog is Source as Normalize assembled it. Only Normalize sets it, so
	// it is read-only while the job runs and concurrent segment builds
	// share it; a server drops it once the job is terminal.
	prog *arm.Program
}

// maxSourceBytes bounds inline assembly so a single request cannot balloon
// server memory.
const maxSourceBytes = 1 << 20

// maxScale bounds the workload scale factor.
const maxScale = 64

// minCheckpointInterval bounds how often a job may drain for a checkpoint.
const minCheckpointInterval = 1000

// maxTraceEvents bounds the per-job trace ring so one request cannot pin
// arbitrary server memory (26 bytes of ring per event plus the rendered
// JSON).
const maxTraceEvents = 1 << 20

// maxParallelism bounds the requested segment count of a time-parallel
// job; tpar clamps further to the program length.
const maxParallelism = 16

// SpecError is a request defect: the submission is rejected with 400 and
// this message, and nothing is enqueued.
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return e.msg }

func specErrf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// ParseSpec decodes, normalizes and validates a request body. Unknown
// fields are rejected — silently dropping a typo'd field would hash two
// different intentions to the same content address.
func ParseSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxSourceBytes+4096))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return nil, specErrf("bad request body: %v", err)
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Normalize canonicalizes the spec in place and validates it: defaults are
// filled, names are case-folded, and anything the registry cannot build is
// rejected now (at admission) rather than on a worker.
func (s *JobSpec) Normalize() error {
	s.Simulator = strings.ToLower(strings.TrimSpace(s.Simulator))
	s.Kernel = strings.ToLower(strings.TrimSpace(s.Kernel))
	s.Config.Bpred = strings.ToLower(strings.TrimSpace(s.Config.Bpred))
	engine, ok := diffrun.Lookup(s.Simulator)
	if !ok {
		names := diffrun.Names()
		return specErrf("unknown simulator %q (want %s or %s)", s.Simulator,
			strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
	}
	if (s.Kernel == "") == (s.Source == "") {
		return specErrf("exactly one of kernel and source must be set")
	}
	if s.Kernel != "" && workload.ByName(s.Kernel) == nil {
		return specErrf("unknown kernel %q", s.Kernel)
	}
	if len(s.Source) > maxSourceBytes {
		return specErrf("source exceeds %d bytes", maxSourceBytes)
	}
	if s.Scale < 1 {
		s.Scale = 1
	}
	if s.Scale > maxScale {
		return specErrf("scale %d exceeds maximum %d", s.Scale, maxScale)
	}
	if s.MaxCycles < 0 {
		return specErrf("max_cycles must be >= 0")
	}
	if s.CheckpointInterval != 0 && s.CheckpointInterval < minCheckpointInterval {
		return specErrf("checkpoint_interval %d below minimum %d (draining the pipeline that often would dominate the run)",
			s.CheckpointInterval, minCheckpointInterval)
	}
	if s.TraceEvents < 0 {
		return specErrf("trace_events must be >= 0")
	}
	if s.TraceEvents > maxTraceEvents {
		return specErrf("trace_events %d exceeds maximum %d", s.TraceEvents, maxTraceEvents)
	}
	s.ParallelMode = strings.ToLower(strings.TrimSpace(s.ParallelMode))
	if s.ParallelMode == "exact" {
		s.ParallelMode = "" // the default: keep the canonical form minimal
	}
	if s.Parallelism < 0 {
		return specErrf("parallelism must be >= 0")
	}
	if s.Parallelism == 1 {
		s.Parallelism = 0 // one segment is the serial run: canonicalize away
	}
	if s.Parallelism > maxParallelism {
		return specErrf("parallelism %d exceeds maximum %d", s.Parallelism, maxParallelism)
	}
	if s.Parallelism > 1 {
		if s.CheckpointInterval != 0 {
			return specErrf("parallelism and checkpoint_interval are mutually exclusive (a time-parallel run has no single resumable frontier)")
		}
		if s.TraceEvents != 0 {
			return specErrf("parallelism and trace_events are mutually exclusive (segment trace rings cannot be stitched into one tail)")
		}
	} else if s.ParallelMode != "" {
		return specErrf("parallel_mode requires parallelism > 1")
	}
	if s.ParallelMode != "" && s.ParallelMode != "sampled" {
		return specErrf("unknown parallel_mode %q (want exact or sampled)", s.ParallelMode)
	}
	if engine.Functional() && !s.Config.isZero() {
		return specErrf("simulator %q is functional and takes no cache/bpred config", s.Simulator)
	}
	if _, err := s.predictor(); err != nil {
		return err
	}
	if err := s.checkCaches(); err != nil {
		return err
	}
	// Assemble now so a syntactically broken inline program is a 400, not a
	// failed job. Kernels are known-good; skip the redundant work for them.
	if s.Source != "" {
		p, err := arm.Assemble(s.Source, 0x8000)
		if err != nil {
			return specErrf("source does not assemble: %v", err)
		}
		s.prog = p
	}
	return nil
}

// Canonical returns the canonical bytes of a normalized spec.
func (s *JobSpec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A JobSpec is plain data; this cannot fail.
		panic(err)
	}
	return b
}

// ID returns the spec's content address: the hex SHA-256 of its canonical
// bytes.
func (s *JobSpec) ID() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// WorkloadLabel names the workload in reports: the kernel name, or
// "inline" for submitted source.
func (s *JobSpec) WorkloadLabel() string {
	if s.Kernel != "" {
		return s.Kernel
	}
	return "inline"
}

// ConfigLabel names a non-default configuration in reports.
func (s *JobSpec) ConfigLabel() string {
	if s.Config.isZero() {
		return ""
	}
	var parts []string
	if s.Config.ICache != nil {
		parts = append(parts, "icache")
	}
	if s.Config.DCache != nil {
		parts = append(parts, "dcache")
	}
	if s.Config.Bpred != "" {
		parts = append(parts, s.Config.Bpred)
	}
	return "custom:" + strings.Join(parts, "+")
}

// predictor builds the configured branch predictor, or nil for the model
// default.
func (s *JobSpec) predictor() (bpred.Predictor, error) {
	spec := strings.ToLower(strings.TrimSpace(s.Config.Bpred))
	switch {
	case spec == "":
		return nil, nil
	case spec == "nottaken":
		return bpred.NewNotTaken(), nil
	case strings.HasPrefix(spec, "bimodal:"):
		n, err := strconv.Atoi(spec[len("bimodal:"):])
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return nil, specErrf("bpred %q: bimodal entry count must be a positive power of two", spec)
		}
		return bpred.NewBimodal(n), nil
	default:
		return nil, specErrf("unknown bpred %q (want nottaken or bimodal:N)", spec)
	}
}

// checkCaches validates the cache overrides without keeping the instances.
func (s *JobSpec) checkCaches() error {
	if s.Config.ICache != nil {
		if _, err := s.Config.ICache.cache("icache"); err != nil {
			return specErrf("icache: %v", err)
		}
	}
	if s.Config.DCache != nil {
		if _, err := s.Config.DCache.cache("dcache"); err != nil {
			return specErrf("dcache: %v", err)
		}
	}
	return nil
}

// program returns the job's workload: a kernel assembled now, or the
// source as Normalize assembled it.
func (s *JobSpec) program() (*arm.Program, error) {
	if s.Kernel != "" {
		return workload.ByName(s.Kernel).Program(s.Scale)
	}
	if s.prog == nil {
		return nil, errors.New("serve: source job was not normalized")
	}
	return s.prog, nil
}

// engineConfig builds the registry Config from the overrides; nil caches
// and predictor select each model's defaults.
func (s *JobSpec) engineConfig() (diffrun.Config, error) {
	var cfg diffrun.Config
	if s.Config.ICache != nil {
		c, err := s.Config.ICache.cache("icache")
		if err != nil {
			return cfg, err
		}
		cfg.Caches.I = c
	}
	if s.Config.DCache != nil {
		c, err := s.Config.DCache.cache("dcache")
		if err != nil {
			return cfg, err
		}
		cfg.Caches.D = c
	}
	pred, err := s.predictor()
	cfg.Predictor = pred
	return cfg, err
}

// Build assembles the program and constructs the simulator, returning the
// stepper that runs it. Called on a worker; every failure mode that can be
// detected cheaply was already rejected at admission by Normalize.
func (s *JobSpec) Build() (batch.Stepper, error) {
	st, _, err := s.build()
	return st, err
}

// build is Build keeping the registry's final-state extractor.
func (s *JobSpec) build() (batch.CheckpointStepper, func() diffrun.State, error) {
	engine, ok := diffrun.Lookup(s.Simulator)
	if !ok {
		return nil, nil, specErrf("unknown simulator %q", s.Simulator)
	}
	p, err := s.program()
	if err != nil {
		return nil, nil, err
	}
	cfg, err := s.engineConfig()
	if err != nil {
		return nil, nil, err
	}
	return engine.New(p, cfg)
}
