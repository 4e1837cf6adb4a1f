// Command experiments regenerates the paper's evaluation (DATE 2005,
// Reshadi & Dutt): Figure 10 (simulation performance in million cycles per
// second for SimpleScalar-ARM vs the RCPN-generated XScale and StrongARM
// simulators), Figure 11 (CPI of SimpleScalar-ARM vs RCPN-StrongARM), and
// the ablation study quantifying each §4/§5 engine optimization.
//
// Usage:
//
//	experiments [-fig 10|11|ablation|all] [-scale N] [-csv out.csv]
//
// Absolute numbers depend on the host; the paper's claims are about shape:
// RCPN simulators an order of magnitude faster than the baseline,
// StrongARM faster than XScale (simpler pipeline -> simpler generated
// simulator), and CPIs of the two CPI-comparable simulators within ~10%.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/core"
	"rcpn/internal/cpn"
	"rcpn/internal/diffrun"
	"rcpn/internal/iss"
	"rcpn/internal/machine"
	"rcpn/internal/mem"
	"rcpn/internal/stats"
	"rcpn/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 10, 11, ablation, sweep, all")
	scale := flag.Int("scale", 4, "workload scale factor (1 = quick)")
	csv := flag.String("csv", "", "also write raw measurements as CSV to this file")
	flag.IntVar(&workers, "j", 0, "measurement worker pool (0 = GOMAXPROCS, 1 = the old serial loop)")
	flag.Parse()

	set := &stats.Set{}
	switch *fig {
	case "10":
		fig10(set, *scale)
	case "11":
		fig11(set, *scale)
	case "ablation":
		ablation(*scale)
	case "sweep":
		sweep(*scale)
	case "all":
		fig10(set, *scale)
		fig11(set, *scale)
		ablation(*scale)
		sweep(*scale)
	default:
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", *fig)
		os.Exit(2)
	}
	if *csv != "" {
		if err := os.WriteFile(*csv, []byte(set.CSV()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("raw measurements written to %s\n", *csv)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// runner is one measured simulator: a report label and the registry engine
// behind it.
type runner struct {
	name   string
	engine diffrun.Engine
}

// runnerLabels maps the report labels to registry engine names: the paper's
// three bars plus, beyond them, a hand-written direct-style five-stage
// simulator, showing the generated RCPN simulator reaches hand-written
// performance (the paper's §5 FastSim comparison).
var runnerLabels = []struct{ label, engine string }{
	{"SimpleScalar-Arm", "ssim"},
	{"RCPN-XScale", "xscale"},
	{"RCPN-StrongARM", "strongarm"},
	{"hand-written-5stage", "pipe5"},
}

func runners() []runner {
	var rs []runner
	for _, l := range runnerLabels {
		e, ok := diffrun.Lookup(l.engine)
		if !ok {
			die(fmt.Errorf("engine %q is not in the registry", l.engine))
		}
		rs = append(rs, runner{name: l.label, engine: e})
	}
	return rs
}

// run simulates p to completion and returns the cycle and instruction
// counts.
func (r runner) run(p *arm.Program) (int64, uint64, error) {
	st, _, err := r.engine.Build(p)
	if err != nil {
		return 0, 0, err
	}
	err = diffrun.Finish(st, 1<<40)
	cycles, instret := st.Progress()
	return cycles, instret, err
}

// workers is the -j flag: the size of the measurement worker pool.
var workers int

// measure runs every workload on every simulator through the batch worker
// pool, verifying results against the ISS golden model as it goes. The golden
// functional runs happen up front (they are cheap and their instruction
// counts feed every job's verification); the cycle-accurate runs — the
// expensive part — fan out as independent jobs. With -j 1 the pool claims
// jobs in submission order, reproducing the old serial loop exactly; the
// result tables are identical at any -j because results are aggregated in
// submission order, not completion order.
func measure(set *stats.Set, scale int) {
	var jobs []batch.Job
	for _, w := range workload.All() {
		p, err := w.Program(scale)
		if err != nil {
			die(err)
		}
		golden := iss.New(p, 0)
		golden.MaxInstrs = 2_000_000_000
		if err := golden.Run(); err != nil {
			die(fmt.Errorf("%s: iss: %w", w.Name, err))
		}
		for _, r := range runners() {
			if _, ok := set.Get(r.name, w.Name); ok {
				continue
			}
			r, w, p, want := r, w, p, golden.Instret
			jobs = append(jobs, batch.Job{
				Simulator: r.name, Workload: w.Name,
				Run: func(context.Context) (batch.Metrics, error) {
					cycles, instret, err := r.run(p)
					if err != nil {
						return batch.Metrics{}, err
					}
					if instret != want {
						return batch.Metrics{}, fmt.Errorf(
							"instret %d, golden %d — simulator bug", instret, want)
					}
					return batch.Metrics{Cycles: cycles, Instret: instret}, nil
				},
			})
		}
	}
	rep := batch.Run(jobs, batch.Options{Workers: workers})
	for _, r := range rep.Results {
		if r.Err != "" {
			die(fmt.Errorf("%s on %s: %s", r.Simulator, r.Workload, r.Err))
		}
		set.Add(stats.Run{Simulator: r.Simulator, Workload: r.Workload,
			Cycles: r.Cycles, Instret: r.Instret, Wall: r.Wall})
	}
}

func fig10(set *stats.Set, scale int) {
	measure(set, scale)
	fmt.Println(set.Table("Figure 10 — Simulation performance", "million cycles/second", stats.MetricMCPS, 2))
	base := set.Average("SimpleScalar-Arm", stats.MetricMCPS)
	if base > 0 {
		fmt.Printf("speedup over SimpleScalar-Arm:  RCPN-XScale %.1fx,  RCPN-StrongARM %.1fx\n",
			set.Average("RCPN-XScale", stats.MetricMCPS)/base,
			set.Average("RCPN-StrongARM", stats.MetricMCPS)/base)
		fmt.Printf("paper reported:                 ~13.7x (8.2/0.6)    ~20.3x (12.2/0.6); \"~15 times\" overall\n\n")
	}
}

func fig11(set *stats.Set, scale int) {
	measure(set, scale)
	// Figure 11 compares only SimpleScalar-ARM and RCPN-StrongARM (both
	// model a StrongARM-class five-stage machine).
	sub := &stats.Set{}
	for _, r := range set.Runs {
		if r.Simulator == "SimpleScalar-Arm" || r.Simulator == "RCPN-StrongARM" {
			sub.Add(r)
		}
	}
	fmt.Println(sub.Table("Figure 11 — Clocks per instruction", "CPI", stats.MetricCPI, 2))
	a := sub.Average("SimpleScalar-Arm", stats.MetricCPI)
	b := sub.Average("RCPN-StrongARM", stats.MetricCPI)
	if a > 0 {
		fmt.Printf("average CPI difference: %.1f%% (paper: ~10%%, averages 1.8 vs 2.0)\n\n", 100*(b-a)/a)
	}
}

// ablation quantifies the §4/§5 optimizations: the active-place worklist
// replacing the full reverse-topological sweep, the sorted-transitions
// table (Fig. 6), the reverse-topological order avoiding the two-list
// algorithm (Fig. 8), the decoded-token cache, and the RCPN engine vs a
// naive CPN simulation of the converted net. The configuration names match
// BenchmarkAblation in bench_test.go so `go test -bench` and this command
// report the same rows.
func ablation(scale int) {
	fmt.Println("Ablation — engine optimizations (RCPN-StrongARM, crc + go workloads)")
	fmt.Println("metric: Minstr/s (host throughput per simulated instruction; the")
	fmt.Println("two-list ablation also changes modeled timing, so a cycle rate would mislead)")
	fmt.Printf("%-34s%14s%14s\n", "configuration", "Minstr/s", "slowdown")

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
		{"all-off", machine.Config{NoTokenCache: true, DynamicSearch: true,
			TwoListAll: true, NoActiveList: true}},
	}
	var baseline float64
	for i, c := range configs {
		var instrs uint64
		var wall time.Duration
		for _, name := range []string{"crc", "go"} {
			p, err := workload.ByName(name).Program(scale)
			if err != nil {
				die(err)
			}
			m, err := machine.Generate(p, machine.StrongARMSpec(), c.cfg)
			if err != nil {
				die(err)
			}
			start := time.Now()
			if err := m.Run(0); err != nil {
				die(err)
			}
			wall += time.Since(start)
			instrs += m.Instret
		}
		mips := float64(instrs) / wall.Seconds() / 1e6
		if i == 0 {
			baseline = mips
		}
		fmt.Printf("%-34s%14.2f%13.2fx\n", c.name, mips, baseline/mips)
	}
	fmt.Println()
	cpnAblation()
}

// cpnAblation compares the RCPN engine against the generic CPN engine on
// the converted Figure 2 pipeline — the structural reason CPN models of
// pipelines "significantly reduce simulation performance" (§2).
func cpnAblation() {
	const tokens = 200_000
	build := func(pool *core.TokenPool) *core.Net {
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
			Fire:  func() *core.Token { made++; return pool.Get(core.ClassID(made%2), made) },
		})
		// Recycling retired tokens through the pool keeps the measured loop
		// allocation-free; the CPN conversion below ignores the callback, so
		// its side of the comparison is unaffected.
		n.OnRetire(pool.Put)
		n.MustBuild()
		return n
	}

	rc := build(new(core.TokenPool))
	start := time.Now()
	if _, err := rc.Run(func() bool { return rc.RetiredCount >= tokens }, 10*tokens); err != nil {
		die(err)
	}
	rcRate := float64(rc.CycleCount()) / time.Since(start).Seconds() / 1e6

	converted, _, err := cpn.Convert(build(new(core.TokenPool)))
	if err != nil {
		die(err)
	}
	var endPlace *cpn.Place
	for _, p := range converted.Places() {
		if p.Name == "end" {
			endPlace = p
		}
	}
	start = time.Now()
	if err := converted.Run(func() bool { return len(endPlace.Tokens()) >= tokens }, 10*tokens); err != nil {
		die(err)
	}
	cpnRate := float64(converted.CycleCount()) / time.Since(start).Seconds() / 1e6

	fmt.Println("Engine comparison on the Figure 2 pipeline (200k tokens):")
	fmt.Printf("%-34s%14.2f\n", "RCPN engine (Mcycles/s)", rcRate)
	fmt.Printf("%-34s%14.2f\n", "naive CPN engine (Mcycles/s)", cpnRate)
	fmt.Printf("%-34s%13.2fx\n", "RCPN advantage", rcRate/cpnRate)
	fmt.Println()
}

// sweep is an extension beyond the paper's figures: the kind of design-space
// study the generated simulators exist for. It sweeps the data-cache size on
// the RCPN StrongARM model and reports CPI and hit ratio per configuration —
// "performance metrics such as cycle counts, cache hit ratios and different
// resource utilization statistics" (§1).
func sweep(scale int) {
	fmt.Println("Extension — data-cache size sweep (RCPN-StrongARM, compress + fir16)")
	fmt.Printf("%-10s%12s%12s%12s%12s\n", "dcache", "CPI", "D$ hit", "cycles", "stall@FD")
	for _, kb := range []int{1, 2, 4, 8, 16, 32} {
		sets := kb * 1024 / (32 * 8) // 8-way, 32B lines
		var cycles int64
		var instret uint64
		var hits, accesses uint64
		var fdStalls uint64
		for _, name := range []string{"compress", "fir16"} {
			p, err := workload.ByName(name).Program(scale)
			if err != nil {
				die(err)
			}
			cfg := machine.Config{Caches: mem.Hierarchy{
				I: mem.MustCache(mem.CacheConfig{Name: "icache", Sets: 16, Ways: 32, LineBytes: 32, HitLatency: 1, MissLatency: 24}),
				D: mem.MustCache(mem.CacheConfig{Name: "dcache", Sets: sets, Ways: 8, LineBytes: 32, HitLatency: 1, MissLatency: 24}),
			}}
			m, err := machine.Generate(p, machine.StrongARMSpec(), cfg)
			if err != nil {
				die(err)
			}
			if err := m.Run(0); err != nil {
				die(err)
			}
			cycles += m.Net.CycleCount()
			instret += m.Instret
			hits += m.DCache.Stats.Hits
			accesses += m.DCache.Stats.Accesses()
			for _, pl := range m.Net.Places() {
				if pl.Name == "FD" {
					fdStalls += pl.Stalls()
				}
			}
		}
		fmt.Printf("%6dKB  %12.3f%11.1f%%%12d%12d\n",
			kb, float64(cycles)/float64(instret), 100*float64(hits)/float64(accesses), cycles, fdStalls)
	}
	fmt.Println()
}
