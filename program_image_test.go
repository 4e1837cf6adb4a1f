package rcpn

// Assembled image pins: the SHA-256 of every kernel's Program.Bytes and its
// entry point, at scales 1 and 2, are pinned in testdata/program_sha256.json,
// so any change to the assembler's output shows up as a named row before it
// reaches an engine.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"rcpn/internal/workload"
)

// imagePinPath pins one row per kernel × scale. Regenerate with
//
//	go test -run TestProgramImagesPinned -update-golden .
//
// only when the assembler's output changes on purpose.
const imagePinPath = "testdata/program_sha256.json"

// imagePin is one kernel × scale row of the image pin table.
type imagePin struct {
	Kernel string `json:"kernel"`
	Scale  int    `json:"scale"`
	Entry  uint32 `json:"entry"`
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

func TestProgramImagesPinned(t *testing.T) {
	var rows []imagePin
	for _, w := range workload.AllWithExtra() {
		for scale := 1; scale <= 2; scale++ {
			p, err := w.Program(scale)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(p.Bytes)
			rows = append(rows, imagePin{w.Name, scale, p.Entry, len(p.Bytes), hex.EncodeToString(sum[:])})
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(imagePinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(imagePinPath)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to create): %v", imagePinPath, err)
	}
	var want []imagePin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", imagePinPath, err)
	}
	if len(want) != len(rows) {
		t.Fatalf("%s has %d rows, want %d (kernels x scales)", imagePinPath, len(want), len(rows))
	}
	for i, got := range rows {
		if got != want[i] {
			t.Errorf("row %d differs from golden:\n got  %+v\n want %+v", i, got, want[i])
		}
	}
}
