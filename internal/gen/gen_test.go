package gen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"go/format"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rcpn/internal/gen"
	"rcpn/internal/machine"
)

func generate(t *testing.T, spec machine.Spec, pkg string) []byte {
	t.Helper()
	src, err := gen.Generate(spec, gen.Options{Package: pkg, Model: strings.TrimPrefix(pkg, "gen"), OutDir: "internal/" + pkg})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/emitted_sha256.json")

// emittedPinPath pins the SHA-256 and length of the source Generate emits
// for each Spec model. Regenerate with
//
//	go test ./internal/gen -run TestEmittedSourcePinned -update-golden
//
// only when the emitted code is meant to change.
const emittedPinPath = "testdata/emitted_sha256.json"

// emittedPin is one model's row of the pin table.
type emittedPin struct {
	Model  string `json:"model"`
	Len    int    `json:"len"`
	SHA256 string `json:"sha256"`
}

// pinnedSpecs lists the Spec models whose emitted source is pinned, in pin
// table order.
var pinnedSpecs = []struct {
	model string
	spec  func() machine.Spec
}{
	{"strongarm", machine.StrongARMSpec},
	{"arm9", machine.ARM9Spec},
	{"xscale", machine.XScaleSpec},
}

// TestEmittedSourcePinned pins what the generator emits for every Spec
// model, byte for byte, so a change to the analyzer or the emitter that
// alters generated code shows up as a named row.
func TestEmittedSourcePinned(t *testing.T) {
	var rows []emittedPin
	for _, ps := range pinnedSpecs {
		src := generate(t, ps.spec(), "gen"+ps.model)
		sum := sha256.Sum256(src)
		rows = append(rows, emittedPin{ps.model, len(src), hex.EncodeToString(sum[:])})
	}
	if *updateGolden {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(emittedPinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(emittedPinPath)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to create): %v", emittedPinPath, err)
	}
	var want []emittedPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", emittedPinPath, err)
	}
	if len(want) != len(rows) {
		t.Fatalf("%s has %d rows, want %d", emittedPinPath, len(want), len(rows))
	}
	for i, got := range rows {
		if got != want[i] {
			t.Errorf("row %d differs from golden:\n got  %+v\n want %+v", i, got, want[i])
		}
	}
}

// TestByteStable pins generation as a pure function: the same spec emits
// identical bytes every time (the property the CI staleness gate relies
// on).
func TestByteStable(t *testing.T) {
	a := generate(t, machine.StrongARMSpec(), "genpipe5")
	b := generate(t, machine.StrongARMSpec(), "genpipe5")
	if string(a) != string(b) {
		t.Fatal("two generations of the same spec differ")
	}
}

// TestGofmtClean pins the emitted source as already formatted: writing it
// to disk and running gofmt must be a no-op.
func TestGofmtClean(t *testing.T) {
	src := generate(t, machine.StrongARMSpec(), "genpipe5")
	formatted, err := format.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(formatted) != string(src) {
		t.Fatal("emitted source is not gofmt-clean")
	}
}

// TestEmittedPackagesBuild generates each CLI model into a scratch
// directory inside the module (an underscore prefix keeps it out of ./...
// wildcards) and compiles it — the end-to-end check that emitted code is
// valid Go against the real machine/obsv surfaces, for the linear
// five-stage model, the deeper-front-end ARM9 and the three-pipe XScale
// (the only model with a fused memory writeback) alike.
func TestEmittedPackagesBuild(t *testing.T) {
	specs := map[string]machine.Spec{
		"pipe5":  machine.StrongARMSpec(),
		"arm9":   machine.ARM9Spec(),
		"xscale": machine.XScaleSpec(),
	}
	for name, spec := range specs {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			src := generate(t, spec, "gentest"+name)
			dir, err := os.MkdirTemp(".", "_gentest")
			if err != nil {
				t.Fatal(err)
			}
			defer os.RemoveAll(dir)
			if err := os.WriteFile(filepath.Join(dir, "gen.go"), src, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("go", "build", "./"+dir)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
		})
	}
}

// TestRejectsUnsupportedSpec pins the analyzer's validation: a spec whose
// lowering the emitter cannot faithfully compile must fail loudly at
// generation time, never emit subtly wrong code.
func TestRejectsUnsupportedSpec(t *testing.T) {
	spec := machine.StrongARMSpec()
	spec.Stages[1].Capacity = 4 // multi-slot latches are not compilable yet
	if _, err := gen.Generate(spec, gen.Options{Package: "p", Model: "m"}); err == nil {
		t.Fatal("multi-capacity stage generated without error")
	}

	if _, err := gen.Generate(machine.StrongARMSpec(), gen.Options{}); err == nil {
		t.Fatal("empty package name accepted")
	}
}
