package iss

import (
	"fmt"

	"rcpn/internal/arch"
	"rcpn/internal/arm"
	"rcpn/internal/ckpt"
	"rcpn/internal/mem"
)

// This file implements the fast-forward half of sampled simulation: the ISS
// runs N instructions at functional speed, snapshots, and any detailed model
// restores the snapshot and measures an interval. Because every instruction
// boundary of a purely functional simulator is a drained boundary, the ISS
// can checkpoint anywhere.

// RunN executes up to n further instructions (or until exit) and returns how
// many actually retired. MaxInstrs still bounds the total.
func (c *CPU) RunN(n uint64) (uint64, error) {
	start := c.Instret
	for !c.Exited && c.Instret-start < n {
		if c.MaxInstrs != 0 && c.Instret >= c.MaxInstrs {
			return c.Instret - start, fmt.Errorf("iss: instruction limit %d exceeded at pc=%#08x", c.MaxInstrs, c.R[arm.PC])
		}
		if err := c.Step(); err != nil {
			return c.Instret - start, err
		}
	}
	return c.Instret - start, nil
}

// Arch returns the architected machine: registers (r15 is the next fetch
// address), flags and the shared record.
func (c *CPU) Arch() ([16]uint32, arm.Flags, *arch.State) { return c.R, c.F, &c.State }

// CheckBoundary reports no error: every instruction boundary is drained.
func (c *CPU) CheckBoundary() error { return nil }

// Checkpoint captures the complete architected state, plus warm
// microarchitectural state when warm units are attached. Every instruction
// boundary is drained, so it never fails; the error result matches
// batch.CheckpointStepper.
func (c *CPU) Checkpoint() (*ckpt.Checkpoint, error) {
	r, f, st := c.Arch()
	ck := st.CaptureArch(r, f)
	ck.CaptureUnits(c.warm())
	return ck, nil
}

// Restore overwrites the CPU's architected state with the checkpoint. The
// decode cache is dropped (the restored image may differ) and any attached
// warm units are reset, then warmed from the checkpoint if it carries state.
func (c *CPU) Restore(ck *ckpt.Checkpoint) error {
	c.R, c.F = c.RestoreArch(ck)
	c.decode.reset()
	return ck.RestoreUnits(c.warm())
}

// warm names the attached warm units (nil members are not attached).
func (c *CPU) warm() ckpt.Units {
	return ckpt.Units{ICache: c.WarmI, DCache: c.WarmD, Pred: c.WarmPred}
}

// NewFromCheckpoint builds a CPU directly from a checkpoint, with no program
// image (the checkpointed memory is the image).
func NewFromCheckpoint(ck *ckpt.Checkpoint) (*CPU, error) {
	c := &CPU{State: arch.State{Mem: mem.New()}}
	if err := c.Restore(ck); err != nil {
		return nil, err
	}
	return c, nil
}

// The batch.CheckpointStepper surface: positions are retired instructions
// and cycles report as zero. MaxInstrs, if set, still applies and surfaces
// as an error.

// Pos is the retired-instruction count.
func (c *CPU) Pos() int64 { return int64(c.Instret) }

// Progress returns (0, instructions): the ISS has no cycles.
func (c *CPU) Progress() (int64, uint64) { return 0, c.Instret }

// StepTo executes until limit instructions retired or the program exits.
func (c *CPU) StepTo(limit int64) (bool, error) {
	if n := limit - int64(c.Instret); n > 0 {
		if _, err := c.RunN(uint64(n)); err != nil {
			return false, err
		}
	}
	return c.Exited, nil
}

// StepToRetired stops at the target or posLimit, whichever comes first
// (both count instructions).
func (c *CPU) StepToRetired(target uint64, posLimit int64) (bool, error) {
	return c.StepTo(min(int64(target), posLimit))
}

// DrainBoundary is a no-op: every instruction boundary is drained.
func (c *CPU) DrainBoundary() error { return nil }
