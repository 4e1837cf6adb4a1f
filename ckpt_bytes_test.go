package rcpn

// Checkpoint byte pins: every registry engine runs each kernel to
// ckptBoundary, drains, and checkpoints. The retirement count at the
// drained boundary and the SHA-256 of the encoded checkpoint are pinned in
// testdata/ckpt_sha256.json, so a change to any engine's capture path
// (architected fields, warm units, codec) shows up as a named cell.
//
// The architected part must also be one machine whichever engine holds it:
// every checkpoint with its warm units dropped encodes byte-identically to
// an ISS checkpoint taken at the same retirement count.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/ckpt"
	"rcpn/internal/diffrun"
	"rcpn/internal/iss"
	"rcpn/internal/workload"
)

// ckptPinPath pins one row per kernel × engine. Regenerate with
//
//	go test -run TestCheckpointBytesPinned -update-golden .
//
// only when a checkpoint's contents change on purpose.
const ckptPinPath = "testdata/ckpt_sha256.json"

// ckptPin is one kernel × engine cell of the pin table.
type ckptPin struct {
	Kernel  string `json:"kernel"`
	Engine  string `json:"engine"`
	Instret uint64 `json:"instret"`
	SHA256  string `json:"sha256"`
}

func (r ckptPin) key() string { return r.Kernel + "/" + r.Engine }

// encode returns ck's codec bytes.
func encode(t *testing.T, ck *ckpt.Checkpoint) []byte {
	t.Helper()
	raw, err := ck.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// issCheckpointAt runs a fresh ISS to instret retired instructions and
// checkpoints it.
func issCheckpointAt(t *testing.T, p *arm.Program, instret uint64) *ckpt.Checkpoint {
	t.Helper()
	c := iss.New(p)
	if _, err := c.RunN(instret); err != nil {
		t.Fatal(err)
	}
	if c.Instret != instret {
		t.Fatalf("iss stopped at %d retired, want %d", c.Instret, instret)
	}
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// pinCell checkpoints e on p at the drained boundary past ckptBoundary.
func pinCell(t *testing.T, kernel string, e diffrun.Engine, p *arm.Program) ckptPin {
	t.Helper()
	st, _, err := e.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	done, err := st.StepToRetired(ckptBoundary, noLimit)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatalf("program exited before %d retired", ckptBoundary)
	}
	if err := st.DrainBoundary(); err != nil {
		t.Fatal(err)
	}
	ck, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	raw := encode(t, ck)

	archOnly := *ck
	archOnly.ICache, archOnly.DCache, archOnly.ITLB, archOnly.DTLB, archOnly.Pred = nil, nil, nil, nil, nil
	if want := encode(t, issCheckpointAt(t, p, ck.Instret)); !bytes.Equal(encode(t, &archOnly), want) {
		t.Errorf("architected checkpoint at %d differs from the ISS's", ck.Instret)
	}

	sum := sha256.Sum256(raw)
	return ckptPin{Kernel: kernel, Engine: e.Name, Instret: ck.Instret, SHA256: hex.EncodeToString(sum[:])}
}

// TestCheckpointBytesPinned is the kernel × engine checkpoint pin table.
func TestCheckpointBytesPinned(t *testing.T) {
	var rows []ckptPin
	for _, w := range workload.All() {
		p, err := w.Program(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range diffrun.Engines() {
			t.Run(w.Name+"/"+e.Name, func(t *testing.T) {
				rows = append(rows, pinCell(t, w.Name, e, p))
			})
		}
	}
	if t.Failed() {
		return
	}
	if *updateGolden {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptPinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(ckptPinPath)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to create): %v", ckptPinPath, err)
	}
	var want []ckptPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", ckptPinPath, err)
	}
	byKey := make(map[string]ckptPin, len(want))
	for _, r := range want {
		byKey[r.key()] = r
	}
	if len(want) != len(rows) {
		t.Errorf("%s has %d rows, want %d (kernels x engines)", ckptPinPath, len(want), len(rows))
	}
	for _, got := range rows {
		if w, ok := byKey[got.key()]; !ok {
			t.Errorf("%s: no golden row", got.key())
		} else if got != w {
			t.Errorf("%s differs from golden:\n got  %s\n want %s", got.key(), fmtPin(got), fmtPin(w))
		}
	}
}

func fmtPin(r ckptPin) string { return fmt.Sprintf("instret %d sha256 %s", r.Instret, r.SHA256) }
