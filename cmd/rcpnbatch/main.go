// Command rcpnbatch drives concurrent simulation sweeps over the paper's
// evaluation matrix using internal/batch, and demonstrates the
// checkpoint-based sampled-simulation flow built on internal/ckpt.
//
// Two modes:
//
//	rcpnbatch -mode matrix   # Figure-10 cells: every simulator × workload,
//	                         # each cell one job on the worker pool
//	rcpnbatch -mode sample   # SMARTS-style sampling: per cell, K detailed
//	                         # intervals started from ISS checkpoints with
//	                         # functionally warmed caches/predictor, plus the
//	                         # full detailed run as reference; reports the
//	                         # sampled-vs-full CPI error
//
// -sims takes the labels of diffrun.Fig10. Every full run is timed by
// diffrun.RunCell and fails unless it retires the ISS golden instruction
// count. Both modes write a machine-readable report (schema rcpn-batch/v1)
// to -out (default BENCH_batch.json). The default report is deterministic —
// identical bytes for -j 1 and -j 8 — because it excludes wall-clock fields;
// pass -wall to embed host timing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/diffrun"
	"rcpn/internal/iss"
	"rcpn/internal/stats"
	"rcpn/internal/tpar"
	"rcpn/internal/workload"
)

func main() {
	mode := flag.String("mode", "matrix", "matrix (Figure-10 cells) or sample (checkpointed intervals)")
	jobs := flag.Int("j", 0, "worker-pool size (0 = GOMAXPROCS)")
	scale := flag.Int("scale", 2, "workload scale factor")
	simsFlag := flag.String("sims", "", "comma-separated simulator subset (default: all)")
	worksFlag := flag.String("workloads", "", "comma-separated workload subset (default: the paper's six)")
	k := flag.Int("k", 5, "sample mode: measured intervals per cell")
	ilen := flag.Uint64("ilen", 20_000, "sample mode: instructions per measured interval")
	out := flag.String("out", "BENCH_batch.json", "report file (empty = none)")
	wall := flag.Bool("wall", false, "embed wall-clock timing in the report (makes it host-dependent)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-job deadline (0 = none)")
	quiet := flag.Bool("q", false, "suppress per-job progress lines")
	flag.Parse()

	sims, err := selectSims(*simsFlag)
	if err != nil {
		die(err)
	}
	works, err := selectWorkloads(*worksFlag)
	if err != nil {
		die(err)
	}

	// An interrupt cancels the golden runs and every job, as in rcpnserve.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var rep *batch.Report
	opt := batch.Options{Workers: *jobs, Timeout: *timeout, Context: ctx}
	if !*quiet {
		opt.Progress = func(done, total int, r batch.Result) {
			status := "ok"
			if r.Err != "" {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s/%s%s %s (%.2fs)\n", done, total,
				r.Simulator, r.Workload, intervalSuffix(r), status, r.Wall.Seconds())
		}
	}

	switch *mode {
	case "matrix":
		jobs, err := diffrun.MatrixJobs(ctx, sims, works, *scale)
		if err != nil {
			die(err)
		}
		rep = batch.Run(jobs, opt)
		fmt.Println(rep.StatsSet().Table(
			"Batch matrix — simulation performance", "million cycles/second", stats.MetricMCPS, 2))
	case "sample":
		rep = runSample(ctx, sims, works, *scale, *k, *ilen, opt)
	default:
		die(fmt.Errorf("unknown -mode %q (want matrix or sample)", *mode))
	}

	if failed := rep.Failed(); len(failed) > 0 {
		for _, r := range failed {
			fmt.Fprintf(os.Stderr, "FAILED: %s\n", r.Err)
		}
	}
	fmt.Printf("%d jobs on %d workers in %.2fs\n", len(rep.Results), rep.Workers, rep.Wall.Seconds())

	if *out != "" {
		data, err := rep.JSON(*wall)
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			die(err)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if len(rep.Failed()) > 0 {
		os.Exit(1)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func intervalSuffix(r batch.Result) string {
	if r.Interval == "" {
		return ""
	}
	return "@" + r.Interval
}

// ---- simulators -----------------------------------------------------------

// selectSims resolves the -sims labels against the Figure 10 bars.
func selectSims(csv string) ([]diffrun.Bar, error) {
	all := diffrun.Fig10()
	if csv == "" {
		return all, nil
	}
	var out []diffrun.Bar
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(all, func(b diffrun.Bar) bool { return b.Label == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown simulator %q", name)
		}
		out = append(out, all[i])
	}
	return out, nil
}

func selectWorkloads(csv string) ([]*workload.Workload, error) {
	if csv == "" {
		return workload.All(), nil
	}
	var out []*workload.Workload
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		w := workload.ByName(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

// ---- sample mode ----------------------------------------------------------

// runSample builds, per (simulator, workload) cell, one full-run reference
// job plus k interval jobs. Each interval job fast-forwards the functional
// ISS (with the simulator's cache/predictor geometry attached for functional
// warming) to the interval start, snapshots through the binary codec, hands
// off to a fresh detailed simulator and measures ilen instructions. The
// sampled CPI estimate is the pooled cycles/instructions over the k
// intervals; its error against the full run is attached to the reference
// job's extra metrics and printed.
func runSample(ctx context.Context, sims []diffrun.Bar, works []*workload.Workload, scale int, k int, ilen uint64, opt batch.Options) *batch.Report {
	if k < 1 {
		die(fmt.Errorf("-k must be >= 1"))
	}
	type cell struct {
		sim, workload string
		full          int   // index of the reference job
		ivs           []int // indices of the interval jobs
	}
	var cells []*cell
	var jobsList []batch.Job

	for _, w := range works {
		p, err := w.Program(scale)
		if err != nil {
			die(err)
		}
		// One functional pass gives the instruction count that places the
		// intervals and checks the reference job; it is the same
		// fast-forward engine the interval jobs use.
		total, err := diffrun.GoldenInstret(ctx, p)
		if err != nil {
			die(fmt.Errorf("%s: iss: %w", w.Name, err))
		}

		for _, s := range sims {
			e, ok := diffrun.Lookup(s.Engine)
			if !ok {
				die(fmt.Errorf("engine %q is not in the registry", s.Engine))
			}
			c := &cell{sim: s.Label, workload: w.Name, full: len(jobsList)}
			full := diffrun.CellJob(s.Label, w.Name, e, p, total)
			full.Interval = "full"
			jobsList = append(jobsList, full)
			for i := 0; i < k; i++ {
				start := total * uint64(i) / uint64(k)
				c.ivs = append(c.ivs, len(jobsList))
				jobsList = append(jobsList, batch.Job{
					Simulator: s.Label, Workload: w.Name, Interval: fmt.Sprintf("k%d", i),
					Run: func(ctx context.Context) (batch.Metrics, error) {
						return sampleInterval(ctx, e, p, start, ilen)
					},
				})
			}
			cells = append(cells, c)
		}
	}

	rep := batch.Run(jobsList, opt)

	fmt.Println("Sampled vs full CPI (per cell: pooled over", k, "intervals of", ilen, "instructions)")
	fmt.Printf("%-22s%-12s%10s%10s%9s\n", "simulator", "workload", "full", "sampled", "err")
	for _, c := range cells {
		full := rep.Results[c.full]
		if full.Err != "" {
			continue
		}
		var cyc int64
		var ins uint64
		ok := true
		for _, i := range c.ivs {
			r := rep.Results[i]
			if r.Err != "" {
				ok = false
				break
			}
			cyc += r.Cycles
			ins += r.Instret
		}
		if !ok || ins == 0 {
			continue
		}
		sampled := float64(cyc) / float64(ins)
		errPct := 100 * (sampled - full.CPI()) / full.CPI()
		if rep.Results[c.full].Extra == nil {
			rep.Results[c.full].Extra = map[string]float64{}
		}
		rep.Results[c.full].Extra["sampled_cpi"] = sampled
		rep.Results[c.full].Extra["cpi_err_pct"] = errPct
		fmt.Printf("%-22s%-12s%10.3f%10.3f%8.2f%%\n",
			c.sim, c.workload, full.CPI(), sampled, errPct)
	}
	fmt.Println()
	return rep
}

// sampleInterval is the body of one interval job: functional fast-forward
// with warming, checkpoint through the binary codec (exercising the
// serialization path end to end), detailed handoff, measure. The
// fast-forward, which runs up to the whole program, steps in batch chunks
// and stops when ctx (the job's deadline) is done; the measured interval is
// short (tens of thousands of instructions).
func sampleInterval(ctx context.Context, e diffrun.Engine, p *arm.Program, start, ilen uint64) (batch.Metrics, error) {
	c := iss.New(p)
	tpar.Warm(e, diffrun.Config{})(c)
	if _, err := batch.StepRetired(ctx, c, start, 0, 0, nil); err != nil {
		return batch.Metrics{}, fmt.Errorf("fast-forward: %w", err)
	}
	snap, err := c.Checkpoint()
	if err != nil {
		return batch.Metrics{}, fmt.Errorf("fast-forward: %w", err)
	}
	data, err := snap.Bytes()
	if err != nil {
		return batch.Metrics{}, fmt.Errorf("encode: %w", err)
	}
	ck, err := ckpt.FromBytes(data)
	if err != nil {
		return batch.Metrics{}, fmt.Errorf("decode: %w", err)
	}
	// Restore into a fresh simulator, run ilen more instructions to the next
	// drained boundary, and count what was simulated after the handoff.
	st, _, err := e.Build(p)
	if err != nil {
		return batch.Metrics{}, err
	}
	if err := st.Restore(ck); err != nil {
		return batch.Metrics{}, err
	}
	_, base := st.Progress()
	if _, err = st.StepToRetired(base+ilen, 1<<40); err == nil {
		err = st.DrainBoundary()
	}
	cyc, ins := st.Progress()
	return batch.Metrics{Cycles: cyc, Instret: ins - base}, err
}
