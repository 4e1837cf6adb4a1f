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
	"context"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/cpn"
	"rcpn/internal/diffrun"
	"rcpn/internal/machine"
	"rcpn/internal/workload"
)

// benchScale keeps individual bench iterations short; cmd/experiments uses
// larger scales for the headline tables.
const benchScale = 1

// benchEngine returns the registry row named name.
func benchEngine(tb testing.TB, name string) diffrun.Engine {
	tb.Helper()
	e, ok := diffrun.Lookup(name)
	if !ok {
		tb.Fatalf("engine %q is not in the registry", name)
	}
	return e
}

// benchCells runs every workload on engine e through diffrun.RunCell, one
// sub-benchmark per workload, and hands report each one's metrics summed
// over b.N runs.
func benchCells(b *testing.B, e diffrun.Engine, report func(b *testing.B, sum batch.Metrics)) {
	for _, w := range workload.All() {
		p, err := w.Program(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(w.Name, func(b *testing.B) {
			var sum batch.Metrics
			for i := 0; i < b.N; i++ {
				m, err := diffrun.RunCell(context.Background(), e, p)
				if err != nil {
					b.Fatal(err)
				}
				sum.Cycles += m.Cycles
				sum.Instret += m.Instret
			}
			report(b, sum)
		})
	}
}

// BenchmarkFig10 regenerates Figure 10: simulation performance in million
// simulated cycles per host second, per simulator per benchmark.
func BenchmarkFig10(b *testing.B) {
	for _, bar := range diffrun.Fig10() {
		b.Run(bar.Label, func(b *testing.B) {
			benchCells(b, benchEngine(b, bar.Engine), func(b *testing.B, sum batch.Metrics) {
				b.ReportMetric(float64(sum.Cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
			})
		})
	}
}

// BenchmarkFig11 regenerates Figure 11: CPI of the StrongARM-class cycle
// simulators (reported as the "CPI" metric; deterministic per benchmark).
func BenchmarkFig11(b *testing.B) {
	for _, bar := range diffrun.Fig10() {
		if !bar.CPI {
			continue
		}
		b.Run(bar.Label, func(b *testing.B) {
			benchCells(b, benchEngine(b, bar.Engine), func(b *testing.B, sum batch.Metrics) {
				b.ReportMetric(sum.CPI(), "CPI")
			})
		})
	}
}

// BenchmarkAblation quantifies the §4/§5 engine optimizations on the
// RCPN-StrongARM simulator (crc workload), one sub-benchmark per
// machine.Ablations row. The metric is Minstr/s — host throughput per
// simulated instruction — because the two-list ablation also changes
// modeled timing, which would distort a cycles-based rate.
func BenchmarkAblation(b *testing.B) {
	p, err := workload.ByName("crc").Program(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range machine.Ablations() {
		b.Run(c.Name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				m, err := machine.Generate(p, machine.StrongARMSpec(), c.Config)
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
// net is built once, its tokens are pooled, and each iteration feeds
// `tokens` more tokens through — so after warm-up, allocs/op is zero. The
// cpn-naive side rebuilds and allocates per iteration, which is exactly the
// generic-engine overhead the paper argues against.
func BenchmarkEngine(b *testing.B) {
	const tokens = 20_000
	b.Run("rcpn", func(b *testing.B) {
		limit := 0
		n, _ := cpn.Fig2(&limit)
		b.ResetTimer()
		var cycles int64
		for i := 0; i < b.N; i++ {
			start := n.CycleCount()
			limit += tokens
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
			limit := tokens
			src, end := cpn.Fig2(&limit)
			converted, m, err := cpn.Convert(src)
			if err != nil {
				b.Fatal(err)
			}
			endPlace := m.PlaceOf[end]
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
	benchCells(b, benchEngine(b, "iss"), reportMIPS)
}

// BenchmarkFunctional measures the functional simulator extracted from the
// RCPN model semantics (the paper's future-work direction), next to the
// independent ISS above.
func BenchmarkFunctional(b *testing.B) {
	benchCells(b, benchEngine(b, "func"), reportMIPS)
}

func reportMIPS(b *testing.B, sum batch.Metrics) {
	b.ReportMetric(float64(sum.Instret)/b.Elapsed().Seconds()/1e6, "Minstr/s")
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
// every Figure 10 bar must resolve in the registry and retire exactly the
// ISS golden instruction count on crc at the bench scale.
func TestBenchmarkHarnessSmoke(t *testing.T) {
	p, err := workload.ByName("crc").Program(benchScale)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := diffrun.GoldenInstret(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, bar := range diffrun.Fig10() {
		m, err := diffrun.RunCell(context.Background(), benchEngine(t, bar.Engine), p)
		if err != nil {
			t.Fatalf("%s: %v", bar.Label, err)
		}
		if m.Cycles == 0 || m.Instret != golden {
			t.Errorf("%s: cycles %d, instret %d; want nonzero cycles and instret %d",
				bar.Label, m.Cycles, m.Instret, golden)
		}
	}
}
