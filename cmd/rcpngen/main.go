// rcpngen generates a cycle-accurate simulator package from a declarative
// machine spec: the RCPN compiled to straight-line Go (internal/gen), with
// fetch/decode, architected state and checkpointing shared with the
// interpreted machines.
//
// Usage:
//
//	rcpngen -model pipe5 -pkg genpipe5 -out internal/genpipe5 [-check] [-build]
//
// The output file is <out>/<pkg>.go. With -check, rcpngen regenerates and
// exits nonzero if the committed file is stale instead of writing (the CI
// staleness gate). With -build, it runs "go build" on the emitted package;
// -out may then be relative or absolute but must lie inside the module,
// because the emitted package imports rcpn/internal/....
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"rcpn/internal/gen"
	"rcpn/internal/machine"
)

var models = map[string]func() machine.Spec{
	"pipe5": machine.StrongARMSpec,
	"arm9":  machine.ARM9Spec,
}

func modelNames() []string {
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	model := flag.String("model", "pipe5", fmt.Sprintf("machine model to generate %v", modelNames()))
	pkg := flag.String("pkg", "", "emitted package name (default gen<model>)")
	out := flag.String("out", "", "output directory (default internal/gen<model>)")
	check := flag.Bool("check", false, "verify the committed file is up to date instead of writing")
	build := flag.Bool("build", false, "go build the emitted package after writing")
	flag.Parse()

	specFn, ok := models[*model]
	if !ok {
		fmt.Fprintf(os.Stderr, "rcpngen: unknown model %q (have %v)\n", *model, modelNames())
		os.Exit(2)
	}
	if *pkg == "" {
		*pkg = "gen" + *model
	}
	if *out == "" {
		*out = filepath.Join("internal", "gen"+*model)
	}

	src, err := gen.Generate(specFn(), gen.Options{Package: *pkg, Model: *model, OutDir: *out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcpngen: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(*out, *pkg+".go")

	if *check {
		have, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcpngen: %s: %v (regenerate with: go run ./cmd/rcpngen -model %s -pkg %s -out %s)\n",
				path, err, *model, *pkg, *out)
			os.Exit(1)
		}
		if !bytes.Equal(have, src) {
			fmt.Fprintf(os.Stderr, "rcpngen: %s is stale; regenerate with: go run ./cmd/rcpngen -model %s -pkg %s -out %s\n",
				path, *model, *pkg, *out)
			os.Exit(1)
		}
		fmt.Printf("rcpngen: %s is up to date (%d bytes)\n", path, len(have))
		return
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "rcpngen: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, src, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "rcpngen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("rcpngen: wrote %s (%d bytes)\n", path, len(src))

	if *build {
		if err := buildPackage(*out); err != nil {
			fmt.Fprintf(os.Stderr, "rcpngen: build failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("rcpngen: built %s\n", *out)
	}
}

// buildPackage runs "go build" inside dir, so a relative and an absolute
// -out work alike. The emitted package imports rcpn/internal/..., so dir
// must lie inside the rcpn module.
func buildPackage(dir string) error {
	list := exec.Command("go", "list", "-m")
	list.Dir = dir
	if mod, err := list.Output(); err != nil || strings.TrimSpace(string(mod)) != "rcpn" {
		return fmt.Errorf("%s is outside the rcpn module: the emitted package imports rcpn/internal/... and must live inside the module", dir)
	}
	build := exec.Command("go", "build", ".")
	build.Dir = dir
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	return build.Run()
}
