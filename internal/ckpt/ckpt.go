// Package ckpt implements serializable architectural checkpoints — the
// substrate of sampled simulation. The paper's conclusion points at a
// spectrum from "fast functional simulators" to cycle-accurate detail; the
// standard way real simulator stacks exploit that spectrum (SMARTS/SimPoint-
// style sampling) is to fast-forward functionally, snapshot, and run detailed
// intervals from the snapshots. A Checkpoint is such a snapshot:
//
//   - full architected state: the 16 ARM registers (r15 = next fetch PC),
//     packed NZCV flags, retired-instruction count, emitted output and exit
//     status;
//   - memory as the canonical sparse page set (the same canonical form
//     mem.Memory.Digest hashes: populated, non-zero pages in ascending
//     order), so a restored memory is byte-identical to the donor;
//   - optional warm microarchitectural state — I/D cache residency (and,
//     for the SimpleScalar-like baseline, TLBs) plus branch-predictor
//     history — so a detailed interval does not start against cold
//     structures (the cold-start bias functional warmup exists to remove).
//
// Checkpoints are captured from the ISS or from any cycle simulator at a
// drained-pipeline boundary (no in-flight instructions), which is the only
// point where architected state alone determines all future behavior. Every
// simulator in this repository can restore one, so any (producer, consumer)
// handoff pair works: ISS -> RCPN-StrongARM, ISS -> baseline, StrongARM ->
// StrongARM across processes, and so on. The architected fields are copied
// in and out in one place, arch.State's CaptureArch and RestoreArch; each
// engine adds only its warm units (Units).
//
// The binary codec (codec.go) is versioned, deterministic and
// round-trippable: Encode of a Decode output is byte-identical, and two
// captures of equal state encode equally regardless of access history.
package ckpt

import (
	"fmt"

	"rcpn/internal/bpred"
	"rcpn/internal/mem"
)

// Page is one captured memory page: Base is the page-aligned address, Data
// the mem.PageBytes-sized contents.
type Page struct {
	Base uint32
	Data []byte
}

// Checkpoint is a complete architectural snapshot plus optional warm
// microarchitectural state.
type Checkpoint struct {
	// R holds r0..r14; R[15] is the address of the next instruction to
	// fetch (the ISS convention).
	R [16]uint32
	// Flags is the packed NZCV (arm.Flags.Pack: bit 3 = N, 2 = Z, 1 = C,
	// 0 = V).
	Flags uint32
	// Instret counts architecturally retired instructions at the snapshot.
	Instret uint64
	// Exited/Exit record program termination (a checkpoint of a finished
	// program restores as finished).
	Exited bool
	Exit   uint32
	// Output and Text are the words and bytes emitted so far (SWI 1/2);
	// carrying them across the handoff keeps a restored run's final output
	// identical to an uninterrupted one.
	Output []uint32
	Text   []byte
	// Mem is the canonical sparse page set, ascending by Base.
	Mem []Page

	// Warm microarchitectural state; nil means "not captured" and the
	// consumer keeps its structures cold (reset).
	ICache *mem.CacheState
	DCache *mem.CacheState
	ITLB   *mem.CacheState
	DTLB   *mem.CacheState
	Pred   *bpred.State
}

// PC returns the next fetch address.
func (ck *Checkpoint) PC() uint32 { return ck.R[15] }

// CaptureMem copies m's contents as the canonical page set. Each page's
// Data is the fresh copy ForEachPage fills from m's allocation pages.
func CaptureMem(m *mem.Memory) []Page {
	var pages []Page
	m.ForEachPage(func(base uint32, data []byte) {
		pages = append(pages, Page{Base: base, Data: data})
	})
	return pages
}

// RestoreMem resets m and installs the captured pages, highest first, so
// m's page directory is sized once.
func RestoreMem(m *mem.Memory, pages []Page) {
	m.Reset()
	for i := len(pages) - 1; i >= 0; i-- {
		m.SetPage(pages[i].Base, pages[i].Data)
	}
}

// Units are an engine's warm microarchitectural structures. A nil unit
// captures nothing, and a checkpoint's state for a unit the engine lacks is
// ignored on restore: the consumer model simply does not have that
// structure.
type Units struct {
	ICache, DCache, ITLB, DTLB *mem.Cache
	Pred                       bpred.Predictor
}

// CaptureUnits records the warm state of u in ck.
func (ck *Checkpoint) CaptureUnits(u Units) {
	ck.ICache, ck.DCache = captureCache(u.ICache), captureCache(u.DCache)
	ck.ITLB, ck.DTLB = captureCache(u.ITLB), captureCache(u.DTLB)
	ck.Pred = capturePred(u.Pred)
}

// RestoreUnits resets every unit of u, then warms it from ck where ck
// carries its state. Restoring always clears whatever warm history a unit
// accumulated before, so nothing stale survives.
func (ck *Checkpoint) RestoreUnits(u Units) error {
	for _, c := range []struct {
		unit *mem.Cache
		st   *mem.CacheState
	}{{u.ICache, ck.ICache}, {u.DCache, ck.DCache}, {u.ITLB, ck.ITLB}, {u.DTLB, ck.DTLB}} {
		if err := restoreCache(c.unit, c.st); err != nil {
			return err
		}
	}
	if u.Pred == nil {
		return nil
	}
	return restorePred(u.Pred, ck.Pred)
}

// capturePred snapshots p's state if the predictor supports it, else nil.
func capturePred(p bpred.Predictor) *bpred.State {
	if s, ok := p.(bpred.Snapshotter); ok {
		st := s.Snapshot()
		return &st
	}
	return nil
}

// restorePred resets p, then installs the snapshot if one is present and p
// supports restoring. A nil snapshot leaves p cold.
func restorePred(p bpred.Predictor, st *bpred.State) error {
	s, ok := p.(bpred.Snapshotter)
	if !ok {
		if st != nil {
			return fmt.Errorf("ckpt: predictor %T cannot restore warm state", p)
		}
		return nil
	}
	s.Reset()
	if st == nil {
		return nil
	}
	return s.Restore(*st)
}

// captureCache snapshots c (nil-safe).
func captureCache(c *mem.Cache) *mem.CacheState {
	if c == nil {
		return nil
	}
	st := c.State()
	return &st
}

// restoreCache resets c, then installs the snapshot if present (nil-safe on
// both sides).
func restoreCache(c *mem.Cache, st *mem.CacheState) error {
	if c == nil {
		return nil
	}
	c.Reset()
	if st == nil {
		return nil
	}
	return c.SetState(*st)
}
