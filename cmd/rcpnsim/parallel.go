package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/diffrun"
	"rcpn/internal/obsv"
	"rcpn/internal/tpar"
)

// parallelFlags is the -parallel* flag set handed over by main.
type parallelFlags struct {
	segments int
	mode     string
	workers  int
	check    bool
	profile  bool
	jsonOut  bool
	emit     bool
	sim      string
	bench    string
	arg      string
}

// runParallel executes one program time-parallel (internal/tpar) on any
// engine in the diffrun registry — generated engines included — and prints
// the report. With -parallel-check it additionally runs the ISS to
// completion and fails loudly unless the final architectural state is
// identical (the CI smoke job's check), and times the serial segmented
// reference on the same plan for the speedup and, in sampled mode, the
// achieved cycle error.
func runParallel(p *arm.Program, engine diffrun.Engine, f parallelFlags) {
	mode, err := tpar.ParseMode(f.mode)
	if err != nil {
		fail(err)
	}
	opt := tpar.Options{
		Segments: f.segments,
		Workers:  f.workers,
		Mode:     mode,
		Warm:     tpar.DefaultWarm(engine.Name),
		Profile:  f.profile,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "rcpnsim: "+format+"\n", args...)
		},
	}
	plan, err := tpar.NewPlan(p, opt)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	res, err := tpar.RunPlan(p, plan, tpar.EngineBuild(engine, p), opt)
	if err != nil {
		fail(err)
	}
	wall := time.Since(start)

	var ser *tpar.Result
	var serWall time.Duration
	if f.check {
		serStart := time.Now()
		ser, err = tpar.Serial(plan, tpar.EngineBuild(engine, p), opt)
		if err != nil {
			fail(err)
		}
		serWall = time.Since(serStart)
	}

	if f.jsonOut {
		wl := f.bench
		if wl == "" {
			wl = f.arg
		}
		extra := res.Extra()
		extra["workers"] = float64(res.Workers)
		rep := &batch.Report{Workers: res.Workers, Wall: wall, Results: []batch.Result{{
			Simulator: f.sim, Workload: wl,
			Metrics: batch.Metrics{Cycles: res.Cycles, Instret: res.Instret,
				Extra: extra, Stalls: res.Stalls},
			Wall: wall,
		}}}
		data, jerr := rep.JSON(false)
		if jerr != nil {
			fail(jerr)
		}
		os.Stdout.Write(data)
	} else {
		printParallelReport(f, res, wall)
	}

	if f.check {
		if err := checkAgainstISS(p, res); err != nil {
			fail(fmt.Errorf("-parallel-check: %v", err))
		}
		if res.Mode == tpar.Sampled {
			errPct := 100 * abs64(res.Cycles-ser.Cycles) / float64(ser.Cycles)
			fmt.Fprintf(os.Stderr, "rcpnsim: sampled mode achieved %.3f%% cycle error (bound claimed %.3f%%) vs serial reference\n",
				errPct, res.ErrBoundPct)
		}
		fmt.Fprintf(os.Stderr, "rcpnsim: -parallel-check ok: final state identical to the ISS (serial %.2fs, %s %.2fs, %.2fx)\n",
			serWall.Seconds(), res.Mode, wall.Seconds(), serWall.Seconds()/wall.Seconds())
	}
}

func printParallelReport(f parallelFlags, res *tpar.Result, wall time.Duration) {
	fmt.Printf("simulator:      %s (time-parallel, %s mode)\n", f.sim, res.Mode)
	fmt.Printf("segments:       %d x %d instructions (%d workers)\n",
		res.Plan.Segments, res.Plan.Interval, res.Workers)
	fmt.Printf("instructions:   %d\n", res.Instret)
	if res.Cycles > 0 {
		fmt.Printf("cycles:         %d\n", res.Cycles)
		fmt.Printf("CPI:            %.3f\n", float64(res.Cycles)/float64(res.Instret))
		fmt.Printf("sim speed:      %.2f Mcycles/s\n", float64(res.Cycles)/wall.Seconds()/1e6)
	} else {
		fmt.Printf("sim speed:      %.2f Minstr/s\n", float64(res.Instret)/wall.Seconds()/1e6)
	}
	fmt.Printf("stitch:         %d adopted, %d rerun, %d reassigned\n",
		res.Adopted, res.Reruns, res.Reassigned)
	if res.Mode == tpar.Sampled {
		fmt.Printf("error bound:    %.3f%% (cycle-weighted warmup bias)\n", res.ErrBoundPct)
	}
	if res.State != nil {
		fmt.Printf("exit code:      %d\n", res.State.Exit)
		if len(res.State.Text) > 0 {
			fmt.Printf("text output:    %q\n", res.State.Text)
		}
		if f.emit {
			for i, w := range res.State.Output {
				fmt.Printf("output[%d] = %#x (%d)\n", i, w, w)
			}
		} else if n := len(res.State.Output); n > 0 {
			fmt.Printf("output words:   %d (run with -emit to print)\n", n)
		}
	}
	fmt.Printf("%-4s %12s %12s %8s %7s %s\n", "seg", "start", "end", "cycles", "CPI", "notes")
	for _, sg := range res.Segments {
		cpi := ""
		if n := sg.End - sg.Start; n > 0 && sg.Cycles > 0 {
			cpi = fmt.Sprintf("%.3f", float64(sg.Cycles)/float64(n))
		}
		notes := ""
		if sg.Adopted {
			notes = "adopted"
		}
		if sg.Exited {
			notes += " exit"
		}
		if sg.Reassigned > 0 {
			notes += fmt.Sprintf(" reassigned x%d", sg.Reassigned)
		}
		if sg.ErrBoundPct > 0 {
			notes += fmt.Sprintf(" ±%.2f%%", sg.ErrBoundPct)
		}
		fmt.Printf("%-4d %12d %12d %8d %7s %s\n", sg.Index, sg.Start, sg.End, sg.Cycles, cpi, strings.TrimSpace(notes))
	}
	if res.Stalls != nil {
		printStallSnapshot(res.Stalls)
	}
}

// printStallSnapshot renders a merged snapshot through a fresh profile so
// the text table matches the serial -profile output.
func printStallSnapshot(snap *obsv.StallSnapshot) {
	names := make([]string, len(snap.Stages))
	for i := range snap.Stages {
		names[i] = snap.Stages[i].Name
	}
	p := obsv.NewStallProfile(names...)
	if err := p.Merge(snap); err == nil {
		fmt.Print(p.Table())
	}
}

// checkAgainstISS runs the ISS golden model to completion and compares the
// parallel run's final architectural state with it — registers, flags,
// memory digest, retired instructions and output streams.
func checkAgainstISS(p *arm.Program, res *tpar.Result) error {
	if res.State == nil {
		return fmt.Errorf("no final architectural state")
	}
	golden, _ := diffrun.Lookup("iss")
	want, err := diffrun.RunPlain(golden, p, int64(res.Plan.Total)+1)
	if err != nil {
		return fmt.Errorf("iss: %v", err)
	}
	if diff := res.State.Diff(want); len(diff) > 0 {
		return fmt.Errorf("final state differs from the ISS: %s", strings.Join(diff, "; "))
	}
	return nil
}

func abs64(x int64) float64 {
	if x < 0 {
		return float64(-x)
	}
	return float64(x)
}
