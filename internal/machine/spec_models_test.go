package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/armgen"
	"rcpn/internal/workload"
)

// specModelsPath pins the two paper models cell by cell. Regenerate with
//
//	go test ./internal/machine -run TestSpecModels -update-golden
//
// only when modeled timing changes on purpose.
const specModelsPath = "testdata/spec_models.json"

// specModel is one Spec model.
type specModel struct{ spec Spec }

var (
	strongARM = specModel{StrongARMSpec()}
	xScale    = specModel{XScaleSpec()}
	arm9      = specModel{ARM9Spec()}
)

// specModels are the two paper models TestSpecModels pins.
func specModels() []specModel { return []specModel{strongARM, xScale} }

// build lowers the model's Spec under cfg.
func (m specModel) build(t testing.TB, p *arm.Program, cfg Config) *Machine {
	t.Helper()
	mc, err := Generate(p, m.spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

// specRow is one cell of the pin: a model run to completion on one program
// with one set of non-pipeline units.
type specRow struct {
	Cell    string   `json:"cell"`
	Cycles  int64    `json:"cycles"`
	Instret uint64   `json:"instret"`
	Flushes uint64   `json:"flushes"`
	Retired uint64   `json:"retired"`
	Exit    uint32   `json:"exit"`
	Output  []uint32 `json:"output"`
	// Trace is the SHA-256 of every cycle's occupancyLine, the program's
	// text output and the final StallProfile.Table().
	Trace string `json:"trace_sha256"`
}

// specCell is one model run on one program with one set of non-pipeline
// units.
type specCell struct {
	name  string
	model specModel
	prog  *arm.Program
	units func(*Config)
}

// specCells enumerates the pin's cells for each model: every kernel with
// the model's own units and with the other model's, the two unit programs
// and armgen seeds 0..63.
func specCells(t *testing.T) []specCell {
	t.Helper()
	var cells []specCell
	for _, m := range specModels() {
		for _, w := range workload.All() {
			p, err := w.Program(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range specModels() {
				cells = append(cells, specCell{fmt.Sprintf("kernel/%s/%s@%s", w.Name, m.spec.Name, u.spec.Name), m, p, u.spec.Units})
			}
		}
		for i, src := range specUnitPrograms {
			p, err := arm.Assemble(src, 0x8000)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, specCell{fmt.Sprintf("unit/%d/%s", i, m.spec.Name), m, p, m.spec.Units})
		}
		for seed := 0; seed < 64; seed++ {
			g, err := armgen.Generate(armgen.Config{Seed: uint64(seed)})
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, specCell{fmt.Sprintf("seed/%02d/%s", seed, m.spec.Name), m, g.Image, m.spec.Units})
		}
	}
	return cells
}

// specUnitPrograms are small programs covering a counted loop, stores with
// scaled offsets, push/pop and a multiply.
var specUnitPrograms = []string{
	`
	mov r0, #0
	mov r1, #1
loop:
	add r0, r0, r1
	add r1, r1, #1
	cmp r1, #60
	bne loop
	swi #1
	swi #0
`,
	`
	ldr r1, =buf
	mov r2, #0
f:
	str r2, [r1, r2, lsl #2]
	add r2, r2, #1
	cmp r2, #12
	bne f
	push {r1, r2}
	pop {r3, r4}
	mul r5, r2, r2
	mov r0, r5
	swi #1
	swi #0
	.align
buf:
	.space 64
`,
}

func runSpecCell(t *testing.T, c specCell) specRow {
	t.Helper()
	var cfg Config
	c.units(&cfg)
	mc := c.model.build(t, c.prog, cfg)
	prof := mc.EnableProfile()
	h := sha256.New()
	for !mc.Exited {
		if mc.Net.CycleCount() >= 1<<26 {
			t.Fatal("runaway simulation")
		}
		mc.Net.Step()
		if mc.Err != nil {
			t.Fatal(mc.Err)
		}
		io.WriteString(h, occupancyLine(mc.Net))
		h.Write([]byte{'\n'})
	}
	h.Write(mc.Text)
	io.WriteString(h, prof.Table())
	return specRow{Cell: c.name, Cycles: mc.Net.CycleCount(), Instret: mc.Instret,
		Flushes: mc.Flushes, Retired: mc.Net.RetiredCount, Exit: mc.Exit,
		Output: mc.Output, Trace: hex.EncodeToString(h.Sum(nil))}
}

// TestSpecModels pins the StrongARM and XScale models on every cell of
// specCells: cycle counts, retirement, flushes, results and a digest of the
// cycle-by-cycle stage occupancy and the stall profile.
func TestSpecModels(t *testing.T) {
	want := map[string]specRow{}
	if !*updateGolden {
		data, err := os.ReadFile(specModelsPath)
		if err != nil {
			t.Fatalf("missing golden %s (run with -update-golden to create): %v", specModelsPath, err)
		}
		var rows []specRow
		if err := json.Unmarshal(data, &rows); err != nil {
			t.Fatalf("%s: %v", specModelsPath, err)
		}
		for _, r := range rows {
			want[r.Cell] = r
		}
	}

	cells := specCells(t)
	rows := make([]specRow, len(cells))
	t.Run("cells", func(t *testing.T) {
		for i, c := range cells {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				rows[i] = runSpecCell(t, c)
				if *updateGolden {
					return
				}
				if w, ok := want[c.name]; !ok {
					t.Errorf("no golden row")
				} else if fmt.Sprint(rows[i]) != fmt.Sprint(w) { // nil and empty outputs print alike
					t.Errorf("differs from golden:\n got  %+v\n want %+v", rows[i], w)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	if !*updateGolden {
		if len(want) != len(rows) {
			t.Fatalf("%s has %d rows, want %d; regenerate with -update-golden", specModelsPath, len(want), len(rows))
		}
		return
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specModelsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
