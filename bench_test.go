package rcpn

// The benchmark harness regenerating the paper's evaluation:
//
//	Figure 10 (simulation performance, Mcycles/s):
//	    BenchmarkFig10/<simulator>/<benchmark>
//	Figure 11 (CPI; reported as the "CPI" metric):
//	    BenchmarkFig11/<simulator>/<benchmark>
//	§4/§5 engine-optimization ablations:
//	    BenchmarkAblation/<configuration>
//	RCPN engine vs naive CPN engine on the Figure 2 pipeline:
//	    BenchmarkEngine/<engine>
//
// Run everything with:
//
//	go test -bench=. -benchmem .
//
// Simulated cycle counts are deterministic; Mcycles/s depends on the host.
// cmd/experiments prints the same data in the paper's table form.

import (
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/core"
	"rcpn/internal/cpn"
	"rcpn/internal/iss"
	"rcpn/internal/machine"
	"rcpn/internal/pipe5"
	"rcpn/internal/ssim"
	"rcpn/internal/workload"
)

// benchScale keeps individual bench iterations short; cmd/experiments uses
// larger scales for the headline tables.
const benchScale = 1

type simResult struct {
	cycles  int64
	instret uint64
}

// simulators maps the Figure 10 bar names to runners.
func simulators() map[string]func(p *arm.Program) (simResult, error) {
	return map[string]func(p *arm.Program) (simResult, error){
		"SimpleScalar-Arm": func(p *arm.Program) (simResult, error) {
			s := ssim.New(p, ssim.Config{})
			err := s.Run(0)
			return simResult{s.Cycles, s.Instret}, err
		},
		"RCPN-XScale": func(p *arm.Program) (simResult, error) {
			var cfg machine.Config
			machine.XScaleUnits(&cfg)
			return runSpec(p, machine.XScaleSpec(), cfg)
		},
		"RCPN-StrongARM": func(p *arm.Program) (simResult, error) {
			return runSpec(p, machine.StrongARMSpec(), machine.Config{})
		},
		"hand-written-5stage": func(p *arm.Program) (simResult, error) {
			s := pipe5.New(p, pipe5.Config{})
			err := s.Run(0)
			return simResult{s.Cycles, s.Instret}, err
		},
	}
}

func runSpec(p *arm.Program, spec machine.Spec, cfg machine.Config) (simResult, error) {
	m, err := machine.Generate(p, spec, cfg)
	if err != nil {
		return simResult{}, err
	}
	err = m.Run(0)
	return simResult{m.Net.CycleCount(), m.Instret}, err
}

var fig10Order = []string{
	"SimpleScalar-Arm", "RCPN-XScale", "RCPN-StrongARM", "hand-written-5stage",
}

// BenchmarkFig10 regenerates Figure 10: simulation performance in million
// simulated cycles per host second, per simulator per benchmark.
func BenchmarkFig10(b *testing.B) {
	sims := simulators()
	for _, simName := range fig10Order {
		run := sims[simName]
		b.Run(simName, func(b *testing.B) {
			for _, w := range workload.All() {
				p, err := w.Program(benchScale)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(w.Name, func(b *testing.B) {
					var cycles int64
					for i := 0; i < b.N; i++ {
						r, err := run(p)
						if err != nil {
							b.Fatal(err)
						}
						cycles += r.cycles
					}
					b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
				})
			}
		})
	}
}

// BenchmarkFig11 regenerates Figure 11: CPI of the StrongARM-class cycle
// simulators (reported as the "CPI" metric; deterministic per benchmark).
func BenchmarkFig11(b *testing.B) {
	sims := simulators()
	for _, simName := range []string{"SimpleScalar-Arm", "RCPN-StrongARM"} {
		run := sims[simName]
		b.Run(simName, func(b *testing.B) {
			for _, w := range workload.All() {
				p, err := w.Program(benchScale)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(w.Name, func(b *testing.B) {
					var last simResult
					for i := 0; i < b.N; i++ {
						r, err := run(p)
						if err != nil {
							b.Fatal(err)
						}
						last = r
					}
					b.ReportMetric(float64(last.cycles)/float64(last.instret), "CPI")
				})
			}
		})
	}
}

// BenchmarkAblation quantifies the §4/§5 engine optimizations on the
// RCPN-StrongARM simulator (crc workload). The metric is Minstr/s — host
// throughput per simulated instruction — because the two-list ablation also
// changes modeled timing, which would distort a cycles-based rate.
func BenchmarkAblation(b *testing.B) {
	configs := []struct {
		name string
		cfg  machine.Config
	}{
		{"full-engine", machine.Config{}},
		{"activeList=off", machine.Config{NoActiveList: true}},
		{"pool=off", machine.Config{NoTokenCache: true}},
		{"activeList=off,pool=off", machine.Config{NoActiveList: true, NoTokenCache: true}},
		{"dynamic-search", machine.Config{DynamicSearch: true}},
		{"two-list-everywhere", machine.Config{TwoListAll: true}},
		{"all-off", machine.Config{NoTokenCache: true, DynamicSearch: true, TwoListAll: true, NoActiveList: true}},
	}
	p, err := workload.ByName("crc").Program(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				m, err := machine.Generate(p, machine.StrongARMSpec(), c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Run(0); err != nil {
					b.Fatal(err)
				}
				instrs += m.Instret
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkEngine compares the RCPN engine against the generic CPN engine
// on the same (converted) Figure 2 pipeline — the §2 claim that direct CPN
// simulation of pipelines is slow. The rcpn side measures steady state: the
// net is built once, tokens come from a core.TokenPool and go back into it
// on retirement, and each iteration pushes `tokens` more tokens through —
// so after warm-up, allocs/op is zero. The cpn-naive side rebuilds and
// allocates per iteration, which is exactly the generic-engine overhead the
// paper argues against.
func BenchmarkEngine(b *testing.B) {
	const tokens = 20_000
	build := func() *core.Net {
		n := core.NewNet(2)
		l1 := n.Place("L1", n.Stage("L1", 1))
		l2 := n.Place("L2", n.Stage("L2", 1))
		end := n.EndPlace("end")
		n.AddTransition(&core.Transition{Name: "U2", Class: 0, From: l1, To: l2})
		n.AddTransition(&core.Transition{Name: "U3", Class: 0, From: l2, To: end})
		n.AddTransition(&core.Transition{Name: "U4", Class: 1, From: l1, To: end})
		made := 0
		n.AddSource(&core.Source{
			Name: "U1", To: l1,
			Guard: func() bool { return made < tokens },
			Fire:  func() *core.Token { made++; return core.NewToken(core.ClassID(made%2), made) },
		})
		n.MustBuild()
		return n
	}
	b.Run("rcpn", func(b *testing.B) {
		var pool core.TokenPool
		made, target := 0, 0
		n := core.NewNet(2)
		l1 := n.Place("L1", n.Stage("L1", 1))
		l2 := n.Place("L2", n.Stage("L2", 1))
		end := n.EndPlace("end")
		n.AddTransition(&core.Transition{Name: "U2", Class: 0, From: l1, To: l2})
		n.AddTransition(&core.Transition{Name: "U3", Class: 0, From: l2, To: end})
		n.AddTransition(&core.Transition{Name: "U4", Class: 1, From: l1, To: end})
		n.AddSource(&core.Source{
			Name: "U1", To: l1,
			Guard: func() bool { return made < target },
			// nil payload: boxing an int into Token.Data would allocate per
			// token and hide the engine's own (zero) steady-state allocation.
			Fire: func() *core.Token { made++; return pool.Get(core.ClassID(made%2), nil) },
		})
		n.OnRetire(func(t *core.Token) { pool.Put(t) })
		n.MustBuild()
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			start := n.CycleCount()
			target += tokens
			want := n.RetiredCount + tokens
			if _, err := n.Run(func() bool { return n.RetiredCount >= want }, 10*tokens); err != nil {
				b.Fatal(err)
			}
			cycles += n.CycleCount() - start
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
	})
	b.Run("cpn-naive", func(b *testing.B) {
		var cycles int64
		for i := 0; i < b.N; i++ {
			converted, _, err := cpn.Convert(build())
			if err != nil {
				b.Fatal(err)
			}
			var endPlace *cpn.Place
			for _, p := range converted.Places() {
				if p.Name == "end" {
					endPlace = p
				}
			}
			if err := converted.Run(func() bool { return len(endPlace.Tokens()) >= tokens }, 10*tokens); err != nil {
				b.Fatal(err)
			}
			cycles += converted.CycleCount()
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
	})
}

// BenchmarkISS measures the functional golden model for context (the
// "extracting fast functional simulators" direction of the paper's
// conclusion).
func BenchmarkISS(b *testing.B) {
	for _, w := range workload.All() {
		p, err := w.Program(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.Name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				c := iss.New(p, 0)
				c.MaxInstrs = 1 << 34
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
				instrs += c.Instret
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkFunctional measures the functional simulator extracted from the
// RCPN model semantics (the paper's future-work direction), next to the
// independent ISS above.
func BenchmarkFunctional(b *testing.B) {
	for _, w := range workload.All() {
		p, err := w.Program(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.Name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				m := machine.NewFunctional(p, machine.Config{})
				if err := m.RunFunctional(0); err != nil {
					b.Fatal(err)
				}
				instrs += m.Instret
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkDecode measures raw instruction-word decoding (the operation the
// token cache amortizes away).
func BenchmarkDecode(b *testing.B) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		b.Fatal(err)
	}
	words := p.Words()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := words[i%len(words)]
		_ = arm.Decode(w, 0x8000+uint32(4*(i%len(words))))
	}
}

// BenchmarkAssemble measures the two-pass assembler on the largest kernel.
func BenchmarkAssemble(b *testing.B) {
	src := workload.ByName("go").Source(1)
	for i := 0; i < b.N; i++ {
		if _, err := arm.Assemble(src, 0x8000); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchmarkHarnessSmoke keeps the harness itself covered by `go test`:
// every simulator must run every workload at the bench scale.
func TestBenchmarkHarnessSmoke(t *testing.T) {
	sims := simulators()
	p, err := workload.ByName("crc").Program(benchScale)
	if err != nil {
		t.Fatal(err)
	}
	var ref *simResult
	for _, name := range fig10Order {
		r, err := sims[name](p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.instret == 0 || r.cycles == 0 {
			t.Fatalf("%s: empty result %+v", name, r)
		}
		if ref == nil {
			ref = &r
		} else if r.instret != ref.instret {
			t.Errorf("%s: instret %d, want %d", name, r.instret, ref.instret)
		}
	}
}
