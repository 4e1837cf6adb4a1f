package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/diffrun"
	"rcpn/internal/tpar"
	"rcpn/internal/workload"
)

// engineScale is the kernel scale of the engines workload: each run of one
// engine on one kernel simulates 0.1 to 0.4 M cycles.
const engineScale = 1

// engineSetup is what the engines workload needs before its first run:
// the assembled kernels and the registry rows it times.
type engineSetup struct {
	progs   map[string]*arm.Program
	engines map[string]diffrun.Engine
}

func setupEngines() (*engineSetup, error) {
	s := &engineSetup{progs: make(map[string]*arm.Program), engines: make(map[string]diffrun.Engine)}
	for _, k := range kernels {
		p, err := workload.ByName(k).Program(engineScale)
		if err != nil {
			return nil, err
		}
		s.progs[k] = p
	}
	for _, e := range diffrun.Engines() {
		s.engines[e.Name] = e
	}
	for _, name := range benchEngines {
		e, ok := s.engines[name]
		if !ok {
			return nil, fmt.Errorf("engine %q is not in the diffrun registry", name)
		}
		// Construct each engine once, so first-use work is part of
		// set-up, not of the first run.
		if _, _, err := e.Build(s.progs[kernels[0]]); err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
	}
	return s, nil
}

type engineRun struct{ engine, kernel string }

// runEngines times every engine on every kernel in rounds. Each round runs
// all engine × kernel pairs in a seeded order, so a slow spell on the host
// lands on every engine alike; an engine's rate is the median over rounds
// of its total simulated cycles over its total StepTo time.
//
// Times are CPU time of the simulating thread, which excludes the time the
// hypervisor hands the vCPU to other guests (steal): on the reference VM
// steal takes up to a third of a busy vCPU in some periods, and no change
// to the code can move it. They are calibrated per round: refLoop runs
// after every pair, and every time of the round is divided by the round's
// slowdown (hostspeed.go).
func runEngines(cfg runConfig) (*outcome, error) {
	runtime.LockOSThread() // threadCPU must keep reading one thread
	defer runtime.UnlockOSThread()
	exp, err := loadEngineExpect()
	if err != nil {
		return nil, err
	}
	s, setupS, err := timeSetups(setupEngines, func(*engineSetup) {})
	if err != nil {
		return nil, err
	}
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, higherBetter: true}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	var order []engineRun
	for _, e := range benchEngines {
		for _, k := range kernels {
			order = append(order, engineRun{e, k})
		}
	}

	rates := map[string][]float64{}    // engine -> per-round rate
	perCycle := map[string][]float64{} // engine.kernel -> per-run ns per cycle
	builds := map[string][]time.Duration{}
	jobs := map[engineRun][]float64{} // build + step of every run, in ms
	mallocs, posSum := map[string]uint64{}, map[string]int64{}
	var slows []float64 // per round
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		stepSum := map[string]time.Duration{}
		cycSum := map[string]int64{}
		// This round's build, step and job times, calibrated once the
		// round's slowdown is known.
		type pairTimes struct {
			r           engineRun
			build, step time.Duration
			pos         int64
		}
		var times []pairTimes
		var ref []time.Duration
		for _, r := range order {
			job := fmt.Sprintf("%s.%s.r%d", r.engine, r.kernel, round)
			runtime.GC() // quiesce the heap so no run pays for another's garbage
			bStart, c0 := time.Now(), threadCPU()
			st, state, err := s.engines[r.engine].Build(s.progs[r.kernel])
			bEnd, c1 := time.Now(), threadCPU()
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", job, err)
			}
			// allocs_per_kcycle counts StepTo's allocations only, so the
			// memory statistics are read between the build and the step,
			// outside both timed stretches.
			var before runtime.MemStats
			if cfg.rec != nil {
				runtime.ReadMemStats(&before)
			}
			sStart, c2 := time.Now(), threadCPU()
			done, err := st.StepTo(1 << 40)
			sEnd, c3 := time.Now(), threadCPU()
			o.attempted++
			if cfg.rec != nil {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				mallocs[r.engine] += after.Mallocs - before.Mallocs
				posSum[r.engine] += st.Pos()
				cfg.rec.add("engine.build", job, 0, bStart, bEnd)
				cfg.rec.add("engine.step", job, 0, sStart, sEnd)
			}
			if !checkEngineRun(o, exp, r, st, state, done, err) {
				continue
			}
			times = append(times, pairTimes{r, c1 - c0, c3 - c2, st.Pos()})
			ref = append(ref, refLoop())
		}
		slow := slowdown(ref)
		slows = append(slows, slow)
		for _, t := range times {
			build := time.Duration(float64(t.build) / slow)
			step := time.Duration(float64(t.step) / slow)
			stepSum[t.r.engine] += step
			cycSum[t.r.engine] += t.pos
			perCycle[t.r.engine+"."+t.r.kernel] = append(perCycle[t.r.engine+"."+t.r.kernel],
				float64(step.Nanoseconds())/float64(t.pos))
			builds[t.r.engine] = append(builds[t.r.engine], build)
			jobs[t.r] = append(jobs[t.r], ms(build+step))
		}
		for e, d := range stepSum {
			rates[e] = append(rates[e], float64(cycSum[e])/1e6/d.Seconds())
		}
		if cfg.rec != nil {
			if err := probeCheckpoints(o, cfg.rec, s, exp, round); err != nil {
				return nil, err
			}
			if err := probeTpar(o, cfg.rec, s, round); err != nil {
				return nil, err
			}
		}
	}

	var cycleRates []float64
	for _, e := range benchEngines {
		r := median(rates[e])
		unit := "Mcycles/s"
		if e == "iss" {
			unit = "Minstr/s"
			o.layers["sim_mips.iss"] = r
		} else {
			cycleRates = append(cycleRates, r)
			o.layers["sim_mcps."+e] = r
		}
		o.notes = append(o.notes, fmt.Sprintf("%-10s %8.3f %s (median of %d rounds)", e, r, unit, len(rates[e])))
		for _, k := range kernels {
			o.layers["step_ns_per_cycle."+e+"."+k] = median(perCycle[e+"."+k])
		}
		o.layers["build_ms."+e] = durQuantile(builds[e], 0.5, ms)
		if cfg.rec != nil {
			o.layers["allocs_per_kcycle."+e] = float64(mallocs[e]) * 1000 / float64(posSum[e])
		}
	}
	midSlow := median(slows) // sorts slows
	o.notes = append(o.notes, fmt.Sprintf("host slowdown (refLoop over nominal) per round: median %.3f, range %.3f to %.3f",
		midSlow, slows[0], slows[len(slows)-1]))
	o.headline = geomean(cycleRates)
	o.e2e["sim_mcps"] = o.headline
	// Job percentiles are taken over the engine × kernel pairs, each at its
	// median run, so they are read from steady per-pair figures rather than
	// from single runs.
	var pairJobs []float64
	for _, ts := range jobs {
		pairJobs = append(pairJobs, median(ts))
	}
	o.e2e["job_p50_ms"] = quantile(pairJobs, 0.5)
	o.e2e["job_p90_ms"] = quantile(pairJobs, 0.9)
	o.e2e["rss_peak_mb"] = peakRSSMB()
	o.e2e["success_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.e2e["setup_s"] = setupS
	return o, nil
}

// checkEngineRun gates one run: it must exit, land on the committed
// position (cycles, or instructions for the ISS), and end in the ISS's
// architectural state.
func checkEngineRun(o *outcome, exp *engineExpect, r engineRun, st batch.Stepper,
	state func() diffrun.State, done bool, err error) bool {
	label := r.engine + " on " + r.kernel
	if err == nil && done {
		if want := exp.Kernels[r.kernel].Pos[r.engine]; st.Pos() != want {
			o.fail("%s: position %d, expected %d", label, st.Pos(), want)
			return false
		}
	}
	return checkState(o, label, exp.Kernels[r.kernel].State, state, done, err)
}

// checkState gates a finished run on the ISS's final state.
func checkState(o *outcome, label string, want diffrun.State, state func() diffrun.State, done bool, err error) bool {
	switch {
	case err != nil:
		o.fail("%s: %v", label, err)
	case !done:
		o.fail("%s did not exit", label)
	default:
		if d := state().Diff(want); len(d) > 0 {
			o.fail("%s: final state differs from the ISS: %v", label, d)
			return false
		}
		return true
	}
	return false
}

// ckptKernel is the kernel the checkpoint codec is probed on.
const ckptKernel = "g721"

// probeCheckpoints times the ckpt codec directly on each checkpointable
// engine: capture at a drained boundary mid-run, encode, decode, restore
// into a fresh instance, and finish there, which must reach the ISS state.
func probeCheckpoints(o *outcome, rec *recorder, s *engineSetup, exp *engineExpect, round int) error {
	p := s.progs[ckptKernel]
	want := exp.Kernels[ckptKernel]
	for _, name := range ckptEngines {
		e := s.engines[name]
		job := fmt.Sprintf("%s.%s.r%d", name, ckptKernel, round)
		st, _, err := e.Build(p)
		if err != nil {
			return err
		}
		if _, err := st.StepToRetired(want.State.Instret/2, 1<<40); err != nil {
			return err
		}
		if err := st.DrainBoundary(); err != nil {
			return err
		}
		t0 := time.Now()
		ck, err := st.Checkpoint()
		t1 := time.Now()
		if err != nil {
			return err
		}
		raw, err := ck.Bytes()
		t2 := time.Now()
		if err != nil {
			return err
		}
		back, err := ckpt.FromBytes(raw)
		t3 := time.Now()
		if err != nil {
			return err
		}
		fresh, state, err := e.Build(p)
		if err != nil {
			return err
		}
		t4 := time.Now()
		err = fresh.Restore(back)
		t5 := time.Now()
		if err != nil {
			return err
		}
		rec.add("ckpt.capture", job, 0, t0, t1)
		rec.add("ckpt.encode", job, 0, t1, t2)
		rec.add("ckpt.decode", job, 0, t2, t3)
		rec.add("ckpt.restore", job, 0, t4, t5)
		o.layers["ckpt_bytes."+name] = float64(len(raw))
		o.attempted++
		done, err := fresh.StepTo(1 << 40)
		checkState(o, name+" restored on "+ckptKernel, want.State, state, done, err)
	}
	for _, name := range ckptEngines {
		for _, stage := range []string{"capture", "encode", "decode", "restore"} {
			var ds []time.Duration
			for _, sp := range rec.byName("ckpt." + stage) {
				if len(sp.Job) > len(name) && sp.Job[:len(name)+1] == name+"." {
					ds = append(ds, sp.dur())
				}
			}
			o.layers["ckpt_"+stage+"_us."+name] = durQuantile(ds, 0.5, us)
		}
	}
	return nil
}

// tparKernel is the kernel the time-parallel ratio is probed on.
const tparKernel = "crc"

// probeTpar times tpar's exact mode with two segments against the serial
// segmented reference on one plan; both must produce the same cycles.
func probeTpar(o *outcome, rec *recorder, s *engineSetup, round int) error {
	p := s.progs[tparKernel]
	build := tpar.EngineBuild(s.engines["strongarm"], p)
	opt := tpar.Options{Segments: 2, Workers: 2, Mode: tpar.Exact, Warm: tpar.DefaultWarm("strongarm")}
	plan, err := tpar.NewPlan(p, opt)
	if err != nil {
		return err
	}
	job := fmt.Sprintf("strongarm.%s.r%d", tparKernel, round)
	t0 := time.Now()
	par, err := tpar.RunPlan(p, plan, build, opt)
	t1 := time.Now()
	if err != nil {
		return err
	}
	ser, err := tpar.Serial(plan, build, opt)
	t2 := time.Now()
	if err != nil {
		return err
	}
	rec.add("tpar.exact", job, 0, t0, t1)
	rec.add("tpar.serial", job, 0, t1, t2)
	o.attempted++
	if par.Cycles != ser.Cycles || par.Instret != ser.Instret {
		o.fail("tpar exact on strongarm/%s: %d cycles, serial reference %d", tparKernel, par.Cycles, ser.Cycles)
	}
	var ratios []float64
	exact, serial := rec.byName("tpar.exact"), rec.byName("tpar.serial")
	for i := range exact {
		ratios = append(ratios, float64(exact[i].dur())/float64(serial[i].dur()))
	}
	o.layers["tpar_exact_over_serial.strongarm"] = median(ratios)
	return nil
}
