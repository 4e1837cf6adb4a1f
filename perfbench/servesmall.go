package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rcpn/internal/loadgen"
	"rcpn/internal/serve"
)

// The serve-small workload: an open loop of seeded exponential arrivals at
// a fixed rate into a durable in-process server. Jobs are generated
// programs of a few hundred simulated cycles, so per-job service overhead
// (admission, canonicalisation and SHA-256, journal fsync, queueing,
// result write, cache) is nearly all of the work.
const (
	// smallRate is the offered load in jobs per second, well below the
	// rate at which the server starts to queue.
	smallRate = 30.0
	// smallDupEvery makes every fifth arrival resubmit a spec already
	// submitted in this run: a cache hit, or a coalesced join when the
	// first copy is still in flight.
	smallDupEvery = 5
	// smallPool is the number of distinct specs in the committed corpus:
	// a 30-second run submits each exactly once, so every seed simulates
	// the same work. Fresh specs are drawn without repeats.
	smallPool = 720
	// smallCorpusSeed fixes the corpus so its digests can be committed;
	// the run seed picks the schedule and which specs are drawn.
	smallCorpusSeed = 0x5eed
)

func smallCorpus() ([]loadgen.Job, error) {
	return loadgen.BuildCorpus(loadgen.CorpusConfig{Seed: smallCorpusSeed, Programs: smallPool})
}

// server is a serve.Server and its data directory ("": memory-only).
type server struct {
	srv *serve.Server
	dir string
}

func (d *server) close() {
	d.srv.Drain(time.Second)
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

type smallSetup struct {
	corpus []loadgen.Job
	ds     *server
}

func runServeSmall(cfg runConfig) (*outcome, error) {
	exp, err := loadDigests("serve-small.txt")
	if err != nil {
		return nil, err
	}
	nset := 0
	s, setupS, err := timeSetups(func() (*smallSetup, error) {
		nset++
		corpus, err := smallCorpus()
		if err != nil {
			return nil, err
		}
		ds, err := newServer(filepath.Join(cfg.work, fmt.Sprintf("small-%d", nset)), nil)
		if err != nil {
			return nil, err
		}
		return &smallSetup{corpus: corpus, ds: ds}, nil
	}, func(s *smallSetup) { s.ds.close() })
	if err != nil {
		return nil, err
	}
	defer s.ds.close()

	var h http.Handler = s.ds.srv
	if cfg.rec != nil {
		h = tracedHandler{next: s.ds.srv, rec: cfg.rec}
	}
	n := int(smallRate * cfg.seconds)
	due, err := loadgen.Schedule(loadgen.ArrivalExponential, smallRate, n, cfg.seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	fresh := rng.Perm(len(s.corpus))
	picks := make([]int, n) // corpus index of each arrival
	nf := 0
	for i := range picks {
		if i%smallDupEvery == smallDupEvery-1 {
			picks[i] = picks[rng.Intn(i)]
		} else {
			picks[i] = fresh[nf%len(fresh)]
			nf++
		}
	}

	var depth *depthSampler
	if cfg.rec != nil {
		depth = startDepthSampler(s.ds.srv)
	}
	jobs := make([]jobOutcome, n)
	clients := runtime.NumCPU()
	start, cpu0 := time.Now(), processCPU()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				jb := s.corpus[picks[i]]
				jo := &jobs[i]
				jo.id = jb.ID
				jo.due = start.Add(due[i])
				time.Sleep(time.Until(jo.due))
				hdr := map[string]string{"X-Tenant": jb.Tenant, jobHeader: jb.ID}
				if jb.Priority != "" {
					hdr["X-Priority"] = jb.Priority
				}
				sid := cfg.rec.open("job", jb.ID, 0, jo.due)
				cfg.rec.setAnchor(jb.ID, sid)
				roundTrip(h, jo, jb.Body, hdr, exp[jb.ID].digest)
				cfg.rec.close(sid, time.Now())
			}
		}(c)
	}
	wg.Wait()
	wall, cpu := time.Since(start), processCPU()-cpu0

	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	var lat, lag []time.Duration
	var cycles int64
	for i := range jobs {
		jo := &jobs[i]
		o.attempted++
		if !jo.ok {
			o.fail("job %d (%s): %s", i, jo.id[:12], jo.err)
			continue
		}
		lat = append(lat, jo.terminal.Sub(jo.due))
		lag = append(lag, jo.sent.Sub(jo.due))
		if !jo.dup {
			cycles += exp[jo.id].cycles
		}
	}
	o.headline = durQuantile(lat, 0.5, ms)
	// Simulated cycles per CPU-second of the whole process: with jobs this
	// small, the per-job overhead sets it.
	o.e2e["sim_mcps"] = float64(cycles) / 1e6 / cpu.Seconds()
	o.e2e["job_p50_ms"] = o.headline
	o.e2e["job_p90_ms"] = durQuantile(lat, 0.9, ms)
	o.e2e["rss_peak_mb"] = peakRSSMB()
	o.e2e["success_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.e2e["setup_s"] = setupS
	o.notes = append(o.notes, fmt.Sprintf("serve-small: %d arrivals at %.0f/s over %.1fs, %d completed and verified",
		n, smallRate, wall.Seconds(), len(lat)))

	if cfg.rec != nil {
		o.layers["queue_depth_max"] = depth.stop()
		serviceLayers(o, cfg.rec)
		m, err := scrapeMetrics(h)
		if err != nil {
			return nil, err
		}
		if acc := m["rcpn_cache_hits_total"] + m["rcpn_cache_coalesced_total"] + m["rcpn_cache_misses_total"]; acc > 0 {
			o.layers["dup_frac"] = (m["rcpn_cache_hits_total"] + m["rcpn_cache_coalesced_total"]) / acc
		}
		o.layers["gen_lag_p90_ms"] = durQuantile(lag, 0.9, ms)
		storeLayers(o, s.ds.dir)
	}
	return o, nil
}

// newServer opens a server with nproc pool workers on data directory dir
// ("": memory-only), dispatching through d when d is not nil.
func newServer(dir string, d serve.Dispatcher) (*server, error) {
	srv, err := serve.New(serve.Config{Workers: runtime.NumCPU(), DataDir: dir, Dispatcher: d,
		Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	return &server{srv: srv, dir: dir}, nil
}

// serviceLayers derives the admission, fetch and wait metrics both service
// workloads share from the handler spans; a metric with no samples is left
// unset.
func serviceLayers(o *outcome, rec *recorder) {
	set := func(name, span string, q float64, conv func(time.Duration) float64) {
		if ds := rec.durations(span); len(ds) > 0 {
			o.layers[name] = durQuantile(ds, q, conv)
		}
	}
	set("admit_us.fresh.p50", "http.submit", 0.5, us)
	set("admit_us.fresh.p90", "http.submit", 0.9, us)
	set("admit_us.dup.p50", "http.submit.dup", 0.5, us)
	set("fetch_us.p50", "http.fetch", 0.5, us)
	set("wait_ms.p50", "http.events", 0.5, ms)
	set("wait_ms.p90", "http.events", 0.9, ms)
}

// storeLayers reads how much the durable store under dir holds.
func storeLayers(o *outcome, dir string) {
	if fi, err := os.Stat(filepath.Join(dir, "journal.log")); err == nil {
		o.layers["store_journal_bytes"] = float64(fi.Size())
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "results")); err == nil {
		o.layers["store_result_files"] = float64(len(ents))
	}
}

// depthSampler polls the queue-depth gauge on /v1/metrics and keeps the
// maximum it saw.
type depthSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startDepthSampler(h http.Handler) *depthSampler {
	d := &depthSampler{stopc: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		max := 0.0
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.stopc:
				d.done <- max
				return
			case <-t.C:
				if m, err := scrapeMetrics(h); err == nil && m["rcpn_queue_depth"] > max {
					max = m["rcpn_queue_depth"]
				}
			}
		}
	}()
	return d
}

func (d *depthSampler) stop() float64 {
	close(d.stopc)
	return <-d.done
}
