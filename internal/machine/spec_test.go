package machine

import (
	"strings"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/bpred"
	"rcpn/internal/iss"
	"rcpn/internal/mem"
	"rcpn/internal/workload"
)

func TestARM9ModelCorrectAndDeeper(t *testing.T) {
	src := `
	mov r0, #0
	mov r1, #1
loop:
	add r0, r0, r1
	add r1, r1, #1
	cmp r1, #200
	bne loop
	swi #1
	swi #0
`
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	golden := iss.New(p)
	golden.MaxInstrs = 1_000_000
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	a9 := arm9.build(t, p, Config{})
	if err := a9.Run(0); err != nil {
		t.Fatal(err)
	}
	if a9.Output[0] != golden.Output[0] || a9.Instret != golden.Instret {
		t.Fatalf("arm9 functional divergence")
	}
	sa := strongARM.build(t, p, Config{})
	if err := sa.Run(0); err != nil {
		t.Fatal(err)
	}
	// The deeper front end costs an extra cycle per taken branch.
	if a9.Net.CycleCount() <= sa.Net.CycleCount() {
		t.Errorf("arm9 (%d cycles) should be slower than strongarm (%d) on branchy code",
			a9.Net.CycleCount(), sa.Net.CycleCount())
	}
}

func TestARM9OnAllWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		p, err := w.Program(1)
		if err != nil {
			t.Fatal(err)
		}
		golden := iss.New(p)
		golden.MaxInstrs = 50_000_000
		if err := golden.Run(); err != nil {
			t.Fatal(err)
		}
		m := arm9.build(t, p, Config{})
		if err := m.Run(0); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if m.Instret != golden.Instret {
			t.Errorf("%s: instret %d, iss %d", w.Name, m.Instret, golden.Instret)
		}
		for i := range golden.Output {
			if m.Output[i] != golden.Output[i] {
				t.Errorf("%s: output[%d] mismatch", w.Name, i)
			}
		}
	}
}

// TestSpecValidation holds Generate to rejecting each malformed StrongARM
// Spec with an error that names the class or stage at fault. The route
// cases are ones a Spec could carry unnoticed into a run: a stage visited
// twice hangs, an issue twice hangs, no issue runs to a wrong result, and a
// load that never reaches memory loads nothing.
func TestSpecValidation(t *testing.T) {
	p, err := arm.Assemble("swi #0\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	roles := map[string]Role{}
	for r := RolePass; r <= RoleMemWriteback; r++ {
		roles[r.String()] = r
	}
	// route sets class's route from "stage role" segments.
	route := func(class arm.Class, segs ...string) func(*Spec) {
		return func(s *Spec) {
			var r []Seg
			for _, seg := range segs {
				stage, role, _ := strings.Cut(seg, " ")
				r = append(r, Seg{Stage: stage, Exit: roles[role]})
			}
			s.Routes[class] = r
		}
	}
	for _, tc := range []struct {
		name  string
		spoil func(*Spec)
		want  string // the class or stage the error must name
	}{
		{"no front end", func(s *Spec) { s.FrontEnd = nil }, "front end"},
		{"no route", func(s *Spec) { s.Routes[arm.ClassBranch] = nil }, "Branch"},
		{"no writeback", func(s *Spec) { s.Routes[arm.ClassDataProc][3].Exit = RolePass }, "DataProc"},
		{"unknown stage", func(s *Spec) { s.Routes[arm.ClassDataProc][1].Stage = "NOPE" }, "NOPE"},
		{"duplicate stage", func(s *Spec) { s.Stages = append(s.Stages, StageSpec{Name: "FD"}) }, "FD"},
		{"unknown bypass stage", func(s *Spec) { s.Bypass = []string{"missing"} }, "missing"},
		{"stage twice", route(arm.ClassDataProc, "FD issue", "EX pass", "EX execute", "ME mem", "WB wb"), "EX"},
		{"issue twice", route(arm.ClassDataProc, "FD issue", "EX issue", "ME execute", "WB wb"), "DataProc"},
		{"no issue", route(arm.ClassDataProc, "FD pass", "EX execute", "ME mem", "WB wb"), "DataProc"},
		{"mid-route writeback", route(arm.ClassDataProc, "FD issue", "EX execute", "ME wb", "WB wb"), "ME"},
		{"stage on no route", func(s *Spec) { s.Stages = append(s.Stages, StageSpec{Name: "XX"}) }, "XX"},
		{"flow cycle", route(arm.ClassDataProc, "FD issue", "EX pass", "FD pass", "ME execute", "WB wb"), "FD"},
		{"load without memory access", route(arm.ClassLoadStore, "FD issue", "EX execute", "ME pass", "WB wb"), "LoadStore"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := StrongARMSpec()
			tc.spoil(&spec)
			_, err := Generate(p, spec, Config{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Generate: %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

// TestTransitionBodies holds every transition of the Spec models to the
// Body the lowering recorded for it: one Body per transition, a Guard
// exactly on the Guarded bodies (the issues and the block-transfer step),
// an Explain exactly on the Explained ones (the issues), a self-loop
// exactly for the block-transfer step and a nil Action exactly for a
// pass. The code generator compiles the recorded Body in place of
// the closures, so these facts are what keeps the two engines alike.
func TestTransitionBodies(t *testing.T) {
	p, err := arm.Assemble("swi #0\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Body]bool{}
	for _, spec := range []Spec{StrongARMSpec(), ARM9Spec(), XScaleSpec()} {
		m, err := Generate(p, spec, Config{})
		if err != nil {
			t.Fatal(err)
		}
		trs := m.Net.Transitions()
		if len(m.bodies) != len(trs) {
			t.Fatalf("%s: %d bodies for %d transitions", spec.Name, len(m.bodies), len(trs))
		}
		for _, tr := range trs {
			b := m.Body(tr)
			seen[b] = true
			for _, c := range []struct {
				fact      string
				got, want bool
			}{
				{"guard", tr.Guard != nil, b.Guarded()},
				{"explain", tr.Explain != nil, b.Explained()},
				{"self-loop", tr.From == tr.To, b == BodyLSMStep},
				{"nil action", tr.Action == nil, b == BodyPass},
			} {
				if c.got != c.want {
					t.Errorf("%s: %s (%v): %s is %v, want %v", spec.Name, tr.Name, b, c.fact, c.got, c.want)
				}
			}
		}
	}
	for b := BodyPass; b <= BodyLSMLastWriteback; b++ {
		if !seen[b] {
			t.Errorf("no Spec model lowers a %v transition", b)
		}
		issue := b == BodyIssue || b == BodyIssueMult
		if b.Guarded() != (issue || b == BodyLSMStep) || b.Explained() != issue {
			t.Errorf("%v: Guarded %v, Explained %v", b, b.Guarded(), b.Explained())
		}
	}
}

// TestGenRuntimeTakesItsModelsUnits: a generated simulator's runtime fills
// the units a Config leaves unset with the units of the Spec model it was
// generated from, never another model's, and refuses a name that is not a
// Spec model.
func TestGenRuntimeTakesItsModelsUnits(t *testing.T) {
	p, err := arm.Assemble("swi #0\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := NewGenRuntime("xscale", p, Config{})
	for _, c := range []*mem.Cache{m.ICache, m.DCache} {
		if c == nil {
			t.Fatal("xscale runtime has a nil cache")
		}
		if cc := c.Config(); cc.Sets*cc.Ways*cc.LineBytes != 32<<10 {
			t.Errorf("%s: %d sets x %d ways x %d B, want 32 KB", cc.Name, cc.Sets, cc.Ways, cc.LineBytes)
		}
	}
	if b, ok := m.Pred.(*bpred.Bimodal); !ok || len(b.Snapshot().Counter) != 128 {
		t.Errorf("xscale runtime predictor %T, want a 128-entry bimodal", m.Pred)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewGenRuntime accepted an unknown model name")
		}
	}()
	NewGenRuntime("pxa999", p, Config{})
}
