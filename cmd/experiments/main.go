// Command experiments regenerates the paper's evaluation (DATE 2005,
// Reshadi & Dutt): Figure 10 (simulation performance in million cycles per
// second for SimpleScalar-ARM vs the RCPN-generated XScale and StrongARM
// simulators), Figure 11 (CPI of SimpleScalar-ARM vs RCPN-StrongARM), and
// the ablation study quantifying each §4/§5 engine optimization.
//
// Usage:
//
//	experiments [-fig 10|11|ablation|sweep|all] [-scale N] [-j N] [-csv out.csv]
//
// -j sizes the worker pool the Figure 10/11 cells run on; the CPI tables
// are identical at any -j. The Figure 10 bars are diffrun.Fig10 and every
// cell is timed by diffrun.RunCell, the runner the Go benchmarks share.
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
	"os/signal"
	"slices"
	"syscall"
	"time"

	"rcpn/internal/batch"
	"rcpn/internal/cpn"
	"rcpn/internal/diffrun"
	"rcpn/internal/machine"
	"rcpn/internal/mem"
	"rcpn/internal/stats"
	"rcpn/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 10, 11, ablation, sweep, all")
	scale := flag.Int("scale", 4, "workload scale factor (1 = quick)")
	csv := flag.String("csv", "", "also write raw measurements as CSV to this file")
	flag.IntVar(&workers, "j", 0, "measurement worker pool (0 = GOMAXPROCS, 1 = one cell at a time)")
	flag.Parse()

	// An interrupt cancels the Figure 10/11 cells, as in rcpnserve.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	set := &stats.Set{}
	switch *fig {
	case "10":
		fig10(ctx, set, *scale)
	case "11":
		fig11(ctx, set, *scale)
	case "ablation":
		ablation(*scale)
	case "sweep":
		sweep(*scale)
	case "all":
		fig10(ctx, set, *scale)
		fig11(ctx, set, *scale)
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

// workers is the -j flag: the size of the measurement worker pool.
var workers int

// measure runs every workload on every Figure 10 bar through the batch
// worker pool; each cell is checked against the ISS golden model. Results
// are aggregated in submission order, not completion order, so the tables
// are identical at any -j. A set an earlier figure filled is kept as is.
func measure(ctx context.Context, set *stats.Set, scale int) {
	if len(set.Runs) > 0 {
		return
	}
	jobs, err := diffrun.MatrixJobs(ctx, diffrun.Fig10(), workload.All(), scale)
	if err != nil {
		die(err)
	}
	rep := batch.Run(jobs, batch.Options{Workers: workers, Context: ctx})
	for _, r := range rep.Failed() {
		die(fmt.Errorf("%s on %s: %s", r.Simulator, r.Workload, r.Err))
	}
	set.Runs = append(set.Runs, rep.StatsSet().Runs...)
}

func fig10(ctx context.Context, set *stats.Set, scale int) {
	measure(ctx, set, scale)
	fmt.Println(set.Table("Figure 10 — Simulation performance", "million cycles/second", stats.MetricMCPS, 2))
	// The paper's three bars: the baseline, then the two RCPN simulators.
	bars := diffrun.Fig10()
	mcps := func(i int) float64 { return set.Average(bars[i].Label, stats.MetricMCPS) }
	if base := mcps(0); base > 0 {
		fmt.Printf("speedup over %s:  %s %.1fx,  %s %.1fx\n",
			bars[0].Label, bars[1].Label, mcps(1)/base, bars[2].Label, mcps(2)/base)
		fmt.Printf("paper reported:                 ~13.7x (8.2/0.6)    ~20.3x (12.2/0.6); \"~15 times\" overall\n\n")
	}
}

func fig11(ctx context.Context, set *stats.Set, scale int) {
	measure(ctx, set, scale)
	// Figure 11 compares only the bars modeling a StrongARM-class
	// five-stage machine.
	var cpi []string
	for _, b := range diffrun.Fig10() {
		if b.CPI {
			cpi = append(cpi, b.Label)
		}
	}
	sub := &stats.Set{}
	for _, r := range set.Runs {
		if slices.Contains(cpi, r.Simulator) {
			sub.Add(r)
		}
	}
	fmt.Println(sub.Table("Figure 11 — Clocks per instruction", "CPI", stats.MetricCPI, 2))
	a := sub.Average(cpi[0], stats.MetricCPI)
	b := sub.Average(cpi[1], stats.MetricCPI)
	if a > 0 {
		fmt.Printf("average CPI difference: %.1f%% (paper: ~10%%, averages 1.8 vs 2.0)\n\n", 100*(b-a)/a)
	}
}

// ablation quantifies the §4/§5 optimizations: the active-place worklist
// replacing the full reverse-topological sweep, the sorted-transitions
// table (Fig. 6), the reverse-topological order avoiding the two-list
// algorithm (Fig. 8), the decoded-token cache, and the RCPN engine vs a
// naive CPN simulation of the converted net. The rows are
// machine.Ablations, which BenchmarkAblation reports too.
func ablation(scale int) {
	fmt.Println("Ablation — engine optimizations (RCPN-StrongARM, crc + go workloads)")
	fmt.Println("metric: Minstr/s (host throughput per simulated instruction; the")
	fmt.Println("two-list ablation also changes modeled timing, so a cycle rate would mislead)")
	fmt.Printf("%-34s%14s%14s\n", "configuration", "Minstr/s", "slowdown")

	var baseline float64
	for i, c := range machine.Ablations() {
		var instrs uint64
		var wall time.Duration
		for _, name := range []string{"crc", "go"} {
			p, err := workload.ByName(name).Program(scale)
			if err != nil {
				die(err)
			}
			m, err := machine.Generate(p, machine.StrongARMSpec(), c.Config)
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
		fmt.Printf("%-34s%14.2f%13.2fx\n", c.Name, mips, baseline/mips)
	}
	fmt.Println()
	cpnAblation()
}

// cpnAblation compares the RCPN engine against the generic CPN engine on
// the converted Figure 2 pipeline — the structural reason CPN models of
// pipelines "significantly reduce simulation performance" (§2).
func cpnAblation() {
	tokens := 200_000
	rc, _ := cpn.Fig2(&tokens)
	start := time.Now()
	if _, err := rc.Run(func() bool { return rc.RetiredCount >= uint64(tokens) }, int64(10*tokens)); err != nil {
		die(err)
	}
	rcRate := float64(rc.CycleCount()) / time.Since(start).Seconds() / 1e6

	src, end := cpn.Fig2(&tokens)
	converted, m, err := cpn.Convert(src)
	if err != nil {
		die(err)
	}
	endPlace := m.PlaceOf[end]
	start = time.Now()
	if err := converted.Run(func() bool { return len(endPlace.Tokens()) >= tokens }, int64(10*tokens)); err != nil {
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
