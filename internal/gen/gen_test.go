package gen_test

import (
	"go/format"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"rcpn/internal/gen"
	"rcpn/internal/machine"
)

func generate(t *testing.T, spec machine.Spec, pkg string) []byte {
	t.Helper()
	src, err := gen.Generate(spec, gen.Options{Package: pkg, Model: pkg, OutDir: "internal/" + pkg})
	if err != nil {
		t.Fatal(err)
	}
	return src
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
// five-stage model and the deeper-front-end ARM9 alike.
func TestEmittedPackagesBuild(t *testing.T) {
	specs := map[string]machine.Spec{
		"pipe5": machine.StrongARMSpec(),
		"arm9":  machine.ARM9Spec(),
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
