// Command rcpnsim runs an ARM7 program — a built-in benchmark kernel or an
// assembly file — on one of the simulators in this repository and prints
// the run's statistics. -sim takes any engine of the internal/diffrun
// registry; -help lists them.
//
// Usage:
//
//	rcpnsim [-sim ENGINE] [-scale N]
//	        [-profile] [-trace FILE] [-trace-events N] [-pipetrace N]
//	        [-util] [-emit] [-json]
//	        [-parallel N] [-parallel-mode exact|sampled] [-parallel-workers N]
//	        [-parallel-check] (-bench name | file.s)
//
// -parallel N splits the job into N segments at drained instruction
// boundaries (internal/tpar). Exact mode is the serial segmented run on
// the -sim engine, draining at every boundary; sampled mode has an ISS
// leader drop warmed checkpoints at the boundaries and simulates the
// segments concurrently, trading a reported warmup error bound for speed.
// -parallel-check fails unless the final architectural state matches the
// ISS, and times the serial segmented reference for comparison.
//
// With -json the human-readable report is replaced by a one-job
// rcpn-batch/v1 record on stdout — the same schema cmd/rcpnbatch and the
// rcpnserve job API emit, so CLI, batch and service outputs diff directly.
// -profile adds per-stage stall attribution (a table in text mode, a
// "stalls" object in -json mode); -trace writes the run's last
// -trace-events events as Chrome trace_event JSON (load in
// chrome://tracing or Perfetto), or as the compact RCPNTRC1 binary when
// FILE ends in .bin.
//
// Examples:
//
//	rcpnsim -bench crc                  # RCPN StrongARM on the crc kernel
//	rcpnsim -sim xscale -bench go       # RCPN XScale on the go kernel
//	rcpnsim -sim iss prog.s             # functional golden model on a file
//	rcpnsim -sim pipe5 -bench crc -profile -trace crc.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/diffrun"
	"rcpn/internal/machine"
	"rcpn/internal/obsv"
	"rcpn/internal/ssim"
	"rcpn/internal/workload"
)

func main() {
	sim := flag.String("sim", "strongarm", "simulator: "+strings.Join(diffrun.Names(), ", "))
	bench := flag.String("bench", "", "built-in benchmark kernel (adpcm, blowfish, compress, crc, g721, go)")
	scale := flag.Int("scale", 1, "benchmark scale factor")
	emit := flag.Bool("emit", false, "print the program's emitted output words")
	pipetrace := flag.Int64("pipetrace", 0, "print a text pipeline trace for the first N cycles (strongarm/xscale)")
	profile := flag.Bool("profile", false, "attribute every stage-cycle to progress or a stall cause and print the table")
	traceFile := flag.String("trace", "", "write an event trace to FILE: Chrome trace_event JSON, or RCPNTRC1 binary when FILE ends in .bin")
	traceEvents := flag.Int("trace-events", 1<<20, "trace ring capacity: the trace keeps the last N events")
	util := flag.Bool("util", false, "print per-transition utilization (RCPN models)")
	jsonOut := flag.Bool("json", false, "emit a one-job rcpn-batch/v1 JSON record instead of the text report")
	parallel := flag.Int("parallel", 0, "time-parallel run: split into N segments at drained boundaries (internal/tpar)")
	parallelMode := flag.String("parallel-mode", "exact", "time-parallel mode: exact (the serial segmented run) or sampled (segments simulated concurrently, warmup error bound reported)")
	parallelWorkers := flag.Int("parallel-workers", 0, "concurrent segment workers for sampled -parallel runs (0 = min(segments, GOMAXPROCS))")
	parallelCheck := flag.Bool("parallel-check", false, "fail unless the final state matches the ISS; also time the serial segmented reference")
	flag.Parse()

	var (
		p   *arm.Program
		err error
	)
	switch {
	case *bench != "":
		w := workload.ByName(*bench)
		if w == nil {
			fail(fmt.Errorf("unknown benchmark %q", *bench))
		}
		p, err = w.Program(*scale)
	case flag.NArg() == 1:
		src, rerr := os.ReadFile(flag.Arg(0))
		if rerr != nil {
			fail(rerr)
		}
		p, err = arm.Assemble(string(src), 0x8000)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}

	engine, ok := diffrun.Lookup(*sim)
	if !ok {
		fail(fmt.Errorf("unknown simulator %q", *sim))
	}
	if *parallel > 1 {
		if *traceFile != "" || *pipetrace > 0 || *util {
			fail(fmt.Errorf("-parallel is incompatible with -trace, -pipetrace and -util (segment rings cannot be stitched)"))
		}
		runParallel(p, engine, parallelFlags{
			segments: *parallel, mode: *parallelMode, workers: *parallelWorkers,
			check: *parallelCheck, profile: *profile, jsonOut: *jsonOut,
			emit: *emit, sim: *sim, bench: *bench, arg: flag.Arg(0),
		})
		return
	}

	start := time.Now()
	st, state, err := engine.Build(p)
	if err != nil {
		fail(err)
	}
	// Per-model extras, recovered from the simulator behind the stepper.
	var extra func()
	switch s := st.(type) {
	case *machine.Machine:
		if s.Net != nil { // functional machines have no pipeline to report on
			if *pipetrace > 0 {
				s.AttachTracer(os.Stdout, *pipetrace)
			}
			extra = func() { machineExtras(s, *util) }
		}
	case *ssim.Sim:
		extra = func() { fmt.Printf("recoveries:     %d\n", s.Flushes) }
	}

	// Observability attachments: every simulator implements
	// obsv.Instrumentable.
	ins := st.(obsv.Instrumentable)
	var prof *obsv.StallProfile
	var tracer *obsv.Tracer
	if *profile {
		prof = ins.EnableProfile()
	}
	if *traceFile != "" {
		if *traceEvents <= 0 {
			fail(fmt.Errorf("-trace-events must be > 0"))
		}
		tracer = obsv.NewTracer(*traceEvents)
		ins.AttachTrace(tracer)
	}

	err = diffrun.Finish(st, 1<<40)
	wall := time.Since(start)
	if err != nil {
		fail(err)
	}
	cycles, instret := st.Progress()
	fin := state()
	output, text, exitCode := fin.Output, fin.Text, fin.Exit

	if *traceFile != "" {
		if werr := writeTrace(tracer, *traceFile); werr != nil {
			fail(werr)
		}
	}

	if *jsonOut {
		wl := *bench
		if wl == "" {
			wl = flag.Arg(0)
		}
		var stalls *obsv.StallSnapshot
		if prof != nil {
			stalls = prof.Snapshot()
		}
		rep := &batch.Report{Workers: 1, Wall: wall, Results: []batch.Result{{
			Simulator: *sim, Workload: wl,
			Metrics: batch.Metrics{Cycles: cycles, Instret: instret, Stalls: stalls},
			Wall:    wall,
		}}}
		data, jerr := rep.JSON(false)
		if jerr != nil {
			fail(jerr)
		}
		os.Stdout.Write(data)
		return
	}

	fmt.Printf("simulator:      %s\n", *sim)
	fmt.Printf("instructions:   %d\n", instret)
	if cycles > 0 {
		fmt.Printf("cycles:         %d\n", cycles)
		fmt.Printf("CPI:            %.3f\n", float64(cycles)/float64(instret))
		fmt.Printf("sim speed:      %.2f Mcycles/s\n", float64(cycles)/wall.Seconds()/1e6)
	} else {
		fmt.Printf("sim speed:      %.2f Minstr/s\n", float64(instret)/wall.Seconds()/1e6)
	}
	fmt.Printf("exit code:      %d\n", exitCode)
	if extra != nil {
		extra()
	}
	if len(text) > 0 {
		fmt.Printf("text output:    %q\n", text)
	}
	if *emit {
		for i, w := range output {
			fmt.Printf("output[%d] = %#x (%d)\n", i, w, w)
		}
	} else if len(output) > 0 {
		fmt.Printf("output words:   %d (run with -emit to print)\n", len(output))
	}
	if prof != nil {
		fmt.Print(prof.Table())
	}
}

// machineExtras prints an interpreted RCPN machine's unit statistics.
func machineExtras(m *machine.Machine, util bool) {
	if util {
		fmt.Print(m.UtilizationReport())
	}
	fmt.Printf("flushes:        %d\n", m.Flushes)
	fmt.Printf("icache:         %.2f%% hit (%d accesses)\n",
		100*m.ICache.Stats.HitRatio(), m.ICache.Stats.Accesses())
	fmt.Printf("dcache:         %.2f%% hit (%d accesses)\n",
		100*m.DCache.Stats.HitRatio(), m.DCache.Stats.Accesses())
	fmt.Printf("branch pred:    %.2f%% (%d lookups)\n",
		100*m.Pred.Stats().Accuracy(), m.Pred.Stats().Lookups)
	for _, pl := range m.Net.Places() {
		if pl.Stalls() > 0 {
			fmt.Printf("stalls at %-4s  %d\n", pl.Name+":", pl.Stalls())
		}
	}
}

// writeTrace renders the tracer's ring: Chrome trace_event JSON by default,
// the RCPNTRC1 binary when the path ends in .bin.
func writeTrace(tr *obsv.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".bin") {
		err = tr.WriteBinary(f)
	} else {
		err = tr.WriteChromeJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rcpnsim:", err)
	os.Exit(1)
}
