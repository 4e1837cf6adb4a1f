package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rcpn/internal/serve"
	"rcpn/internal/shard"
)

// The cluster-sweep workload: a closed loop of nproc clients, each
// submitting its next kernel job when the previous one finishes, into a
// durable server whose Dispatcher is a shard coordinator with nproc
// in-process workers over loopback RCPNRPC1.
var (
	sweepSims = []string{"strongarm", "xscale", "pipe5", "ssim"}
	// sweepScales mixes scales so that every kernel's job retires 120k to
	// 275k instructions: a narrow spread of job lengths keeps the latency
	// percentiles from hinging on which kinds a run happened to end on.
	sweepScales = map[string]int{"blowfish": 2, "crc": 2}
	// sweepModes weights the job kinds: half plain, a quarter checkpointed,
	// a quarter time-parallel (two segments, exact mode).
	sweepModes = []string{"plain", "plain", "ckpt", "par"}
)

// sweepInterval is the checkpoint interval of "ckpt" jobs, in retired
// instructions: 3 to 11 checkpoints per kernel run.
const sweepInterval = 25_000

// sweepCap is the max_cycles of a job before its per-run offset; every
// kernel exits far below it, so the cap never changes a result, but a
// distinct cap per job gives every submission its own content address.
const sweepCap = 1 << 30

type sweepCombo struct {
	sim, kernel string
	scale       int
	mode        string
}

func (c sweepCombo) key() string { return fmt.Sprintf("%s/%s/%d/%s", c.sim, c.kernel, c.scale, c.mode) }

func (c sweepCombo) spec(maxCycles int64) (*serve.JobSpec, error) {
	s := &serve.JobSpec{Simulator: c.sim, Kernel: c.kernel, Scale: c.scale, MaxCycles: maxCycles}
	switch c.mode {
	case "ckpt":
		s.CheckpointInterval = sweepInterval
	case "par":
		s.Parallelism = 2
	}
	return s, s.Normalize()
}

// sweepCombos lists every job kind, modes repeated by weight.
func sweepCombos() []sweepCombo {
	var out []sweepCombo
	for _, sim := range sweepSims {
		for _, k := range kernels {
			for _, m := range sweepModes {
				out = append(out, sweepCombo{sim, k, max(1, sweepScales[k]), m})
			}
		}
	}
	return out
}

// cluster is a coordinator, its workers and the durable server
// dispatching to it.
type cluster struct {
	ln      net.Listener
	coord   *shard.Coordinator
	srv     *server
	cancel  context.CancelFunc
	running sync.WaitGroup
	ran     *jobSet // jobs a shard worker built an engine for
}

func startCluster(rec *recorder, dir string) (*cluster, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	quiet := func(string, ...any) {}
	c := &cluster{ln: ln, coord: shard.NewCoordinator(shard.CoordinatorConfig{Logf: quiet}), ran: newJobSet()}
	c.running.Add(1)
	go func() {
		defer c.running.Done()
		c.coord.Serve(ln) //nolint:errcheck // returns when ln closes
	}()
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	n := runtime.NumCPU()
	for i := 0; i < n; i++ {
		wcfg := shard.WorkerConfig{Node: fmt.Sprintf("w%d", i+1), Slots: 1, Logf: quiet,
			Build: workerBuild(c.ran, rec)}
		w := shard.NewWorker(wcfg)
		c.running.Add(1)
		go func() {
			defer c.running.Done()
			w.Run(ctx, ln.Addr().String()) //nolint:errcheck // returns ctx.Err() at stop
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); c.coord.Live() < n; {
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("only %d of %d shard workers joined", c.coord.Live(), n)
		}
		time.Sleep(time.Millisecond)
	}
	var d serve.Dispatcher = c.coord
	if rec != nil {
		d = tracedDispatcher{next: c.coord, rec: rec}
	}
	s, err := newServer(dir, d)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.srv = s
	return c, nil
}

// stop shuts everything down and waits for every goroutine it started.
func (c *cluster) stop() {
	if c.srv != nil {
		c.srv.close()
	}
	c.cancel()
	c.coord.Close()
	c.ln.Close()
	c.running.Wait()
}

func runClusterSweep(cfg runConfig) (*outcome, error) {
	exp, err := loadDigests("cluster-sweep.txt")
	if err != nil {
		return nil, err
	}
	nset := 0
	c, setupS, err := timeSetups(func() (*cluster, error) {
		nset++
		return startCluster(cfg.rec, filepath.Join(cfg.work, fmt.Sprintf("cluster-%d", nset)))
	}, (*cluster).stop)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	var h http.Handler = c.srv.srv
	if cfg.rec != nil {
		h = tracedHandler{next: c.srv.srv, rec: cfg.rec}
	}

	combos := sweepCombos()
	bases := make([]serve.JobSpec, len(combos))
	for i, c := range combos {
		spec, err := c.spec(sweepCap)
		if err != nil {
			return nil, err
		}
		bases[i] = *spec
	}
	// Jobs walk seeded shuffles of the full kind list, so every run covers
	// the kinds evenly (a 45-second run makes about seven passes) and the
	// seed sets the order.
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	var mu sync.Mutex
	var order []int
	next := func(i int) int {
		mu.Lock()
		defer mu.Unlock()
		for i >= len(order) {
			order = append(order, rng.Perm(len(combos))...)
		}
		return order[i]
	}

	type sweepJob struct {
		jobOutcome
		combo sweepCombo
	}
	var (
		counter atomic.Int64
		jobsMu  sync.Mutex
		jobs    []*sweepJob
		wg      sync.WaitGroup
	)
	start, cpu0 := time.Now(), processCPU()
	ticks0, steal0 := cpuTicks()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	stopSampling := sampleHostSpeed()
	for cl := 0; cl < runtime.NumCPU(); cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := counter.Add(1) - 1
				k := next(int(i))
				spec := bases[k]
				spec.MaxCycles = sweepCap + i
				sj := &sweepJob{combo: combos[k]}
				sj.id = spec.ID()
				sj.due = time.Now()
				sid := cfg.rec.open("job", sj.id, 0, sj.due)
				cfg.rec.setAnchor(sj.id, sid)
				roundTrip(h, &sj.jobOutcome, spec.Canonical(), map[string]string{jobHeader: sj.id}, exp[sj.combo.key()].digest)
				cfg.rec.close(sid, time.Now())
				jobsMu.Lock()
				jobs = append(jobs, sj)
				jobsMu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(start), processCPU()-cpu0
	ticks1, steal1 := cpuTicks()
	samples := stopSampling()
	// unstolen is the share of the machine's CPU time the hypervisor did
	// not hand to other guests during the run, and slow the host's median
	// slowdown over the run (see README.md); every time figure below is
	// wall time scaled by unstolen and divided by slow.
	unstolen := 1 - float64(steal1-steal0)/float64(max(1, ticks1-ticks0))
	slow := slowdown(samples)

	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, higherBetter: true}
	var lat, latSerial, latPar []time.Duration
	var cycles int64
	for _, sj := range jobs {
		o.attempted++
		if !sj.ok {
			o.fail("%s (%s): %s", sj.combo.key(), sj.id[:12], sj.err)
			continue
		}
		if !c.ran.has(sj.id) {
			o.fail("%s (%s) never ran on a shard worker", sj.combo.key(), sj.id[:12])
			continue
		}
		d := time.Duration(float64(sj.terminal.Sub(sj.due)) * unstolen / slow)
		lat = append(lat, d)
		if sj.combo.mode == "par" {
			latPar = append(latPar, d)
		} else {
			latSerial = append(latSerial, d)
		}
		cycles += exp[sj.combo.key()].cycles
	}
	// Sweep capacity: cycles of verified jobs per calibrated unstolen wall
	// second.
	o.headline = float64(cycles) / 1e6 / (wall.Seconds() * unstolen / slow)
	o.e2e["sim_mcps"] = o.headline
	o.e2e["job_p50_ms"] = durQuantile(lat, 0.5, ms)
	o.e2e["job_p90_ms"] = durQuantile(lat, 0.9, ms)
	o.e2e["rss_peak_mb"] = peakRSSMB()
	o.e2e["success_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.e2e["setup_s"] = setupS
	o.layers["sweep_cpu_mcps"] = float64(cycles) / 1e6 / cpu.Seconds() * slow
	o.notes = append(o.notes, fmt.Sprintf("cluster-sweep: %d jobs over %.1fs, %d verified, %.2f Mcycles per wall second, %.2f per unstolen wall second (steal %.1f%%), %.2f calibrated (host slowdown %.3f over %d samples), %.2f per calibrated CPU second",
		len(jobs), wall.Seconds(), len(lat), float64(cycles)/1e6/wall.Seconds(), float64(cycles)/1e6/(wall.Seconds()*unstolen), 100*(1-unstolen),
		o.headline, slow, len(samples), o.layers["sweep_cpu_mcps"]))

	if cfg.rec != nil {
		serviceLayers(o, cfg.rec)
		m, err := scrapeMetrics(h)
		if err != nil {
			return nil, err
		}
		storeLayers(o, c.srv.dir)
		o.layers["dispatch_errors"] = m["rcpn_shard_dispatch_errors_total"]
		o.layers["retries"] = m["rcpn_jobs_retried_total"]
		o.layers["job_ms.serial.p50"] = durQuantile(latSerial, 0.5, ms)
		o.layers["job_ms.parallel.p50"] = durQuantile(latPar, 0.5, ms)
		modes := make(map[string]string, len(jobs))
		for _, sj := range jobs {
			modes[sj.id] = sj.combo.mode
		}
		clusterLayers(o, cfg.rec, modes)
	}
	return o, nil
}

// clusterLayers derives the shard and RPC metrics from the dispatcher and
// worker spans; modes maps each job to its kind.
func clusterLayers(o *outcome, rec *recorder, modes map[string]string) {
	acked := map[string]time.Duration{}
	for _, s := range rec.byName("http.submit") {
		acked[s.Job] = time.Duration(s.End)
	}
	build := rec.perJob("worker.build")
	step := rec.perJob("worker.step")
	ck := rec.perJob("worker.ckpt")
	var queueWait, dispatch, overhead, builds, steps []time.Duration
	for _, s := range rec.byName("dispatch") {
		if a, ok := acked[s.Job]; ok {
			queueWait = append(queueWait, time.Duration(s.Start)-a)
		}
		dispatch = append(dispatch, s.dur())
		if modes[s.Job] != "par" {
			overhead = append(overhead, s.dur()-build[s.Job]-step[s.Job]-ck[s.Job])
		}
	}
	for job, d := range build {
		if modes[job] != "par" {
			builds = append(builds, d)
			steps = append(steps, step[job])
		}
	}
	o.layers["queue_wait_ms.p50"] = durQuantile(queueWait, 0.5, ms)
	o.layers["queue_wait_ms.p90"] = durQuantile(queueWait, 0.9, ms)
	o.layers["dispatch_ms.p50"] = durQuantile(dispatch, 0.5, ms)
	o.layers["dispatch_ms.p90"] = durQuantile(dispatch, 0.9, ms)
	o.layers["rpc_overhead_ms.p50"] = durQuantile(overhead, 0.5, ms)
	o.layers["worker_build_ms.p50"] = durQuantile(builds, 0.5, ms)
	o.layers["worker_step_ms.p50"] = durQuantile(steps, 0.5, ms)
	o.layers["worker_ckpt_us.p50"] = durQuantile(rec.durations("worker.ckpt"), 0.5, us)
	counts := rec.countPerJob("worker.ckpt")
	n, total := 0, 0
	for job, mode := range modes {
		if mode == "ckpt" {
			n++
			total += counts[job]
		}
	}
	if n > 0 {
		o.layers["ckpts_per_job"] = float64(total) / float64(n)
	}
}
