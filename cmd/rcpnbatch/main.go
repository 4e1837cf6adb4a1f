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
// Both write a machine-readable report (schema rcpn-batch/v1) to -out
// (default BENCH_batch.json). The default report is deterministic — identical
// bytes for -j 1 and -j 8 — because it excludes wall-clock fields; pass -wall
// to embed host timing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/diffrun"
	"rcpn/internal/iss"
	"rcpn/internal/stats"
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

	var rep *batch.Report
	opt := batch.Options{Workers: *jobs, Timeout: *timeout}
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
		rep = runMatrix(sims, works, *scale, opt)
		fmt.Println(rep.StatsSet().Table(
			"Batch matrix — simulation performance", "million cycles/second", stats.MetricMCPS, 2))
	case "sample":
		rep = runSample(sims, works, *scale, *k, *ilen, opt)
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

// ---- simulator registry ---------------------------------------------------

// simdef is one measured simulator: a report label of the paper's Figure 10
// bars and the registry engine behind it.
type simdef struct {
	name   string
	engine diffrun.Engine
}

// simLabels maps the report labels to registry engine names.
var simLabels = []struct{ label, engine string }{
	{"SimpleScalar-Arm", "ssim"},
	{"RCPN-XScale", "xscale"},
	{"RCPN-StrongARM", "strongarm"},
	{"hand-written-5stage", "pipe5"},
}

func allSims() []simdef {
	var sims []simdef
	for _, l := range simLabels {
		e, ok := diffrun.Lookup(l.engine)
		if !ok {
			die(fmt.Errorf("engine %q is not in the registry", l.engine))
		}
		sims = append(sims, simdef{name: l.label, engine: e})
	}
	return sims
}

// full runs the simulator to completion through batch.Drive, so a per-job
// deadline or a canceled sweep stops it at the next chunk boundary instead
// of leaking the goroutine.
func (s simdef) full(ctx context.Context, p *arm.Program) (batch.Metrics, error) {
	st, _, err := s.engine.Build(p)
	if err != nil {
		return batch.Metrics{}, err
	}
	err = batch.Drive(ctx, st, 0, 0, nil)
	c, i := st.Progress()
	return batch.Metrics{Cycles: c, Instret: i}, err
}

// interval restores ck into a fresh simulator, runs n more instructions to
// the next drained boundary, and returns the cycles and instructions
// simulated after the handoff.
func (s simdef) interval(p *arm.Program, ck *ckpt.Checkpoint, n uint64) (batch.Metrics, error) {
	st, _, err := s.engine.Build(p)
	if err != nil {
		return batch.Metrics{}, err
	}
	if err := st.Restore(ck); err != nil {
		return batch.Metrics{}, err
	}
	_, base := st.Progress()
	if _, err = st.StepToRetired(base+n, 1<<40); err == nil {
		err = st.DrainBoundary()
	}
	c, i := st.Progress()
	return batch.Metrics{Cycles: c, Instret: i - base}, err
}

func selectSims(csv string) ([]simdef, error) {
	all := allSims()
	if csv == "" {
		return all, nil
	}
	var out []simdef
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, s := range all {
			if s.name == name {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown simulator %q", name)
		}
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

// ---- matrix mode ----------------------------------------------------------

func runMatrix(sims []simdef, works []*workload.Workload, scale int, opt batch.Options) *batch.Report {
	var jobs []batch.Job
	for _, w := range works {
		p, err := w.Program(scale)
		if err != nil {
			die(err)
		}
		for _, s := range sims {
			s, w := s, w
			jobs = append(jobs, batch.Job{
				Simulator: s.name, Workload: w.Name,
				Run: func(ctx context.Context) (batch.Metrics, error) { return s.full(ctx, p) },
			})
		}
	}
	return batch.Run(jobs, opt)
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
func runSample(sims []simdef, works []*workload.Workload, scale int, k int, ilen uint64, opt batch.Options) *batch.Report {
	if k < 1 {
		die(fmt.Errorf("-k must be >= 1"))
	}
	type cell struct {
		sim  simdef
		w    *workload.Workload
		p    *arm.Program
		full int   // index of the reference job
		ivs  []int // indices of the interval jobs
	}
	var cells []*cell
	var jobsList []batch.Job

	for _, w := range works {
		p, err := w.Program(scale)
		if err != nil {
			die(err)
		}
		// One functional pass gives the instruction count that places the
		// intervals; it is the same fast-forward engine the jobs use.
		golden := iss.New(p, 0)
		golden.MaxInstrs = 2_000_000_000
		if err := golden.Run(); err != nil {
			die(fmt.Errorf("%s: iss: %w", w.Name, err))
		}
		total := golden.Instret

		for _, s := range sims {
			s, w, p := s, w, p
			c := &cell{sim: s, w: w, p: p}
			c.full = len(jobsList)
			jobsList = append(jobsList, batch.Job{
				Simulator: s.name, Workload: w.Name, Interval: "full",
				Run: func(ctx context.Context) (batch.Metrics, error) { return s.full(ctx, p) },
			})
			for i := 0; i < k; i++ {
				start := total * uint64(i) / uint64(k)
				label := fmt.Sprintf("k%d", i)
				c.ivs = append(c.ivs, len(jobsList))
				jobsList = append(jobsList, batch.Job{
					Simulator: s.name, Workload: w.Name, Interval: label,
					Run: func(ctx context.Context) (batch.Metrics, error) {
						return sampleInterval(s, p, start, ilen)
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
			c.sim.name, c.w.Name, full.CPI(), sampled, errPct)
	}
	fmt.Println()
	return rep
}

// sampleInterval is the body of one interval job: functional fast-forward
// with warming, checkpoint through the binary codec (exercising the
// serialization path end to end), detailed handoff, measure. Intervals are
// short (tens of thousands of instructions), so they run without
// cancellation checks; the per-job deadline still bounds them through the
// pool's grace fallback.
func sampleInterval(s simdef, p *arm.Program, start, ilen uint64) (batch.Metrics, error) {
	c := iss.New(p, 0)
	w := s.engine.Warm()
	c.WarmI, c.WarmD, c.WarmPred = w.Caches.I, w.Caches.D, w.Predictor
	if _, err := c.RunN(start); err != nil {
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
	return s.interval(p, ck, ilen)
}
