package shard

// The conformance suite for the package invariant: sharding is pure
// routing. Every test here runs real workers over real TCP against a real
// coordinator wired into a real serve.Server, injures the cluster in some
// way — a worker killed mid-job, every frame dropped or corrupted, the
// ring resized, the ring empty — and then compares served result bytes
// against a plain single-process server running the same specs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rcpn/internal/batch"
	"rcpn/internal/faultinj"
	"rcpn/internal/obsv"
	"rcpn/internal/serve"
	"rcpn/internal/store"
)

// ---- cluster scaffolding ---------------------------------------------------

type workerHandle struct {
	w      *Worker
	cancel context.CancelFunc
	done   chan struct{}
}

type cluster struct {
	t       *testing.T
	coord   *Coordinator
	ln      net.Listener
	srv     *serve.Server
	hs      *httptest.Server
	handles map[string]*workerHandle
	stopped bool
}

// startCluster brings up a coordinator on loopback TCP, n workers built
// from wcfgs, and a serve.Server dispatching through the coordinator. Test
// timings: 50ms heartbeats, so evictions land in fractions of a second.
func startCluster(t *testing.T, scfg serve.Config, ccfg CoordinatorConfig, wcfgs []WorkerConfig) *cluster {
	t.Helper()
	quiet := func(string, ...any) {}
	if ccfg.Heartbeat == 0 {
		ccfg.Heartbeat = 50 * time.Millisecond
	}
	if ccfg.IdleTimeout == 0 {
		ccfg.IdleTimeout = 5 * time.Second
	}
	if ccfg.RetryBase == 0 {
		ccfg.RetryBase = 5 * time.Millisecond
	}
	if ccfg.RetryMax == 0 {
		ccfg.RetryMax = 50 * time.Millisecond
	}
	if ccfg.Logf == nil {
		ccfg.Logf = quiet
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{
		t:       t,
		coord:   NewCoordinator(ccfg),
		ln:      ln,
		handles: make(map[string]*workerHandle),
	}
	go c.coord.Serve(ln) //nolint:errcheck // returns when ln closes

	for i := range wcfgs {
		c.addWorker(wcfgs[i])
	}
	waitLive(t, c.coord, len(wcfgs))

	if scfg.Workers == 0 {
		scfg.Workers = 2
	}
	if scfg.Chunk == 0 {
		scfg.Chunk = 4096
	}
	if scfg.SSEInterval == 0 {
		scfg.SSEInterval = 10 * time.Millisecond
	}
	if scfg.RetryBase == 0 {
		scfg.RetryBase = time.Millisecond
	}
	if scfg.RetryMax == 0 {
		scfg.RetryMax = 5 * time.Millisecond
	}
	scfg.Dispatcher = c.coord
	srv, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	c.srv = srv
	c.hs = httptest.NewServer(srv)
	t.Cleanup(c.stop)
	return c
}

// addWorker starts one more worker against the running coordinator.
func (c *cluster) addWorker(wcfg WorkerConfig) {
	c.t.Helper()
	if wcfg.Node == "" {
		wcfg.Node = fmt.Sprintf("w%d", len(c.handles)+1)
	}
	if wcfg.Slots == 0 {
		wcfg.Slots = 2
	}
	if wcfg.Chunk == 0 {
		wcfg.Chunk = 4096
	}
	if wcfg.Heartbeat == 0 {
		wcfg.Heartbeat = 50 * time.Millisecond
	}
	if wcfg.Logf == nil {
		wcfg.Logf = func(string, ...any) {}
	}
	w := NewWorker(wcfg)
	ctx, cancel := context.WithCancel(context.Background())
	h := &workerHandle{w: w, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		w.Run(ctx, c.ln.Addr().String()) //nolint:errcheck // exits on cancel
	}()
	c.handles[wcfg.Node] = h
}

func (c *cluster) stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	if c.hs != nil {
		c.hs.Close()
	}
	if c.srv != nil {
		c.srv.Drain(0)
	}
	for _, h := range c.handles {
		h.cancel()
	}
	for node, h := range c.handles {
		select {
		case <-h.done:
		case <-time.After(5 * time.Second):
			c.t.Errorf("worker %s did not stop", node)
		}
	}
	c.coord.Close()
	c.ln.Close()
}

func waitLive(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Live() != n {
		if time.Now().After(deadline) {
			t.Fatalf("ring never reached %d workers (at %d)", n, c.Live())
		}
		time.Sleep(time.Millisecond)
	}
}

// inflightOwner waits until some worker has a dispatched job in flight and
// returns its coordinator-side handle — the hook the kill tests use to
// murder precisely the worker that owns the job.
func inflightOwner(t *testing.T, c *Coordinator) *remoteWorker {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		for _, w := range c.workers {
			w.mu.Lock()
			n := len(w.inflight)
			w.mu.Unlock()
			if n > 0 {
				c.mu.Unlock()
				return w
			}
		}
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no job ever went in flight on any worker")
	return nil
}

// sameOwnerSpecs steps max_cycles upward from 1<<30 through tmpl (a spec
// with one %d verb for it) until n specs hash to the same owner on a ring
// of nodes, and returns them with that owner. The cap is far above what
// the kernels need, so every spec has the same result bytes but its own
// content address; the search is deterministic because ring placement is.
func sameOwnerSpecs(t *testing.T, nodes []string, tmpl string, n int) ([]*serve.JobSpec, string) {
	t.Helper()
	r := NewRing()
	for _, node := range nodes {
		r.Add(node)
	}
	byOwner := map[string][]*serve.JobSpec{}
	for mc := int64(1 << 30); ; mc++ {
		spec, err := serve.ParseSpec(strings.NewReader(fmt.Sprintf(tmpl, mc)))
		if err != nil {
			t.Fatal(err)
		}
		owner, _ := r.Lookup(spec.ID())
		byOwner[owner] = append(byOwner[owner], spec)
		if len(byOwner[owner]) == n {
			return byOwner[owner], owner
		}
	}
}

// inflightCounts snapshots every worker's claimed-slot count.
func inflightCounts(c *Coordinator) map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.workers))
	for node, w := range c.workers {
		w.mu.Lock()
		out[node] = len(w.inflight)
		w.mu.Unlock()
	}
	return out
}

// ---- minimal HTTP client helpers (the serve ones are package-internal) ----

func httpPost(t *testing.T, base, spec string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func submitJob(t *testing.T, base, spec string) string {
	t.Helper()
	code, data := httpPost(t, base, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", code, data)
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &r); err != nil || r.ID == "" {
		t.Fatalf("bad submit response %q: %v", data, err)
	}
	return r.ID
}

// finishedResult polls the job to a terminal state, requires "done", and
// returns the compacted result field — the bytes under comparison.
func finishedResult(t *testing.T, base, id string) string {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, data := httpGet(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job = %d: %s", code, data)
		}
		var v struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case serve.StateDone:
			var buf bytes.Buffer
			if err := json.Compact(&buf, v.Result); err != nil {
				t.Fatalf("job %s result is not JSON: %v", id, err)
			}
			return buf.String()
		case serve.StateFailed:
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricValue scrapes one unlabelled series from /v1/metrics, requiring
// the whole page to be valid Prometheus text format.
func metricValue(t *testing.T, base, series string) string {
	t.Helper()
	_, data := httpGet(t, base+"/v1/metrics")
	if _, err := obsv.ValidateProm(data); err != nil {
		t.Fatalf("metrics page is not valid Prometheus text format: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	t.Fatalf("metrics page has no %s series", series)
	return ""
}

// refServer is the oracle: a plain single-process server, no dispatcher.
func refServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{Workers: 2, Chunk: 4096, SSEInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Drain(0)
	})
	return hs
}

func mustPlan(t *testing.T, plan string) *faultinj.Injector {
	t.Helper()
	inj, err := faultinj.Parse(plan)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// runBoth submits spec to the cluster and the reference and requires the
// same result bytes from both.
func runBoth(t *testing.T, cl *cluster, ref *httptest.Server, spec string) {
	t.Helper()
	got := finishedResult(t, cl.hs.URL, submitJob(t, cl.hs.URL, spec))
	want := finishedResult(t, ref.URL, submitJob(t, ref.URL, spec))
	if got != want {
		t.Fatalf("sharded result differs from single-process for %s:\n%s\nvs\n%s", spec, got, want)
	}
}

// ---- the conformance tests -------------------------------------------------

// TestShardByteIdentityMatrix: every simulator engine, plus the
// checkpointed and time-parallel execution paths, produces byte-identical
// results through a two-worker cluster and a single-process server.
func TestShardByteIdentityMatrix(t *testing.T) {
	cl := startCluster(t, serve.Config{}, CoordinatorConfig{}, []WorkerConfig{{}, {}})
	ref := refServer(t)
	specs := []string{
		`{"simulator":"strongarm","kernel":"crc","scale":1}`,
		`{"simulator":"xscale","kernel":"crc","scale":1}`,
		`{"simulator":"arm9","kernel":"crc","scale":1}`,
		`{"simulator":"ssim","kernel":"crc","scale":1}`,
		`{"simulator":"pipe5","kernel":"crc","scale":1}`,
		`{"simulator":"func","kernel":"crc","scale":1}`,
		`{"simulator":"iss","kernel":"crc","scale":1}`,
		`{"simulator":"pipe5","kernel":"crc","scale":1,"checkpoint_interval":2000}`,
		`{"simulator":"pipe5","kernel":"crc","scale":1,"parallelism":2}`,
	}
	for _, spec := range specs {
		runBoth(t, cl, ref, spec)
	}
	if n := cl.coord.Evictions(); n != 0 {
		t.Fatalf("healthy matrix run evicted %d workers", n)
	}
}

// TestShardWorkerKilledMidJob is the acceptance criterion: find the worker
// that owns an in-flight job, kill it abruptly (context canceled, TCP torn
// down — the in-process double of kill -9), and require the job to finish
// on the survivor with bytes identical to a single-process run.
func TestShardWorkerKilledMidJob(t *testing.T) {
	// The worker.panic delay rule stalls every checkpoint boundary, holding
	// the job in flight long enough to murder its owner deterministically.
	// A delay cannot change result bytes — nothing wall-clock reaches them.
	spec := `{"simulator":"pipe5","kernel":"crc","scale":2,"checkpoint_interval":2000}`
	cl := startCluster(t, serve.Config{}, CoordinatorConfig{}, []WorkerConfig{
		{Fault: mustPlan(t, "worker.panic*-1:delay=40ms")},
		{Fault: mustPlan(t, "worker.panic*-1:delay=40ms")},
	})
	ref := refServer(t)

	id := submitJob(t, cl.hs.URL, spec)
	owner := inflightOwner(t, cl.coord)
	h := cl.handles[owner.node]
	if h == nil {
		t.Fatalf("in-flight owner %q is not a worker this test started", owner.node)
	}
	h.cancel()         // the worker process is gone
	owner.conn.Close() // and so is its TCP connection, mid-stream

	got := finishedResult(t, cl.hs.URL, id)
	want := finishedResult(t, ref.URL, submitJob(t, ref.URL, spec))
	if got != want {
		t.Fatalf("result after mid-job worker death differs from single-process:\n%s\nvs\n%s", got, want)
	}
	if n := cl.coord.Evictions(); n < 1 {
		t.Fatalf("evictions = %d, want >= 1", n)
	}
	if n := cl.coord.Reassignments(); n < 1 {
		t.Fatalf("reassignments = %d, want >= 1", n)
	}
	survivor := "w1"
	if owner.node == "w1" {
		survivor = "w2"
	}
	if cl.handles[survivor].w.Executed() < 1 {
		t.Fatalf("survivor %s never executed the reassigned job", survivor)
	}
}

// TestShardDroppedFramesEvict: a worker whose every outbound frame is
// silently dropped looks exactly like a dead host. The coordinator must
// evict it on heartbeat silence and the server must still produce correct
// bytes (here by degrading to local execution — the ring is empty after
// the only worker dies).
func TestShardDroppedFramesEvict(t *testing.T) {
	cl := startCluster(t, serve.Config{}, CoordinatorConfig{}, []WorkerConfig{
		{Fault: mustPlan(t, "rpc.drop*-1:error")},
	})
	ref := refServer(t)
	runBoth(t, cl, ref, `{"simulator":"strongarm","kernel":"crc","scale":1}`)
	deadline := time.Now().Add(5 * time.Second)
	for cl.coord.Evictions() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("mute worker never evicted (evictions = %d)", cl.coord.Evictions())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardCorruptFramesEvict: corruption is even louder than loss — the
// CRC fails on the first damaged frame and the worker is evicted
// immediately, with result bytes again unharmed.
func TestShardCorruptFramesEvict(t *testing.T) {
	cl := startCluster(t, serve.Config{}, CoordinatorConfig{}, []WorkerConfig{
		{Fault: mustPlan(t, "rpc.drop*-1:corrupt")},
	})
	ref := refServer(t)
	runBoth(t, cl, ref, `{"simulator":"xscale","kernel":"crc","scale":1}`)
	deadline := time.Now().Add(5 * time.Second)
	for cl.coord.Evictions() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("corrupting worker never evicted (evictions = %d)", cl.coord.Evictions())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardRingResize: growing the ring mid-stream re-routes new jobs but
// cannot change anyone's bytes, and needs no evictions to do it.
func TestShardRingResize(t *testing.T) {
	cl := startCluster(t, serve.Config{}, CoordinatorConfig{}, []WorkerConfig{{}})
	ref := refServer(t)
	runBoth(t, cl, ref, `{"simulator":"pipe5","kernel":"crc","scale":1}`)
	cl.addWorker(WorkerConfig{})
	waitLive(t, cl.coord, 2)
	runBoth(t, cl, ref, `{"simulator":"pipe5","kernel":"crc","scale":2}`)
	runBoth(t, cl, ref, `{"simulator":"arm9","kernel":"crc","scale":1}`)
	if n := cl.coord.Evictions(); n != 0 {
		t.Fatalf("ring growth evicted %d workers", n)
	}
}

// TestShardZeroWorkersDegraded: a coordinator with an empty ring is not an
// outage — the server executes locally, says so on /healthz, and the bytes
// match a single-process run. (This is the real-coordinator integration of
// the serve-layer fallback test.)
func TestShardZeroWorkersDegraded(t *testing.T) {
	cl := startCluster(t, serve.Config{}, CoordinatorConfig{}, nil)
	ref := refServer(t)
	runBoth(t, cl, ref, `{"simulator":"ssim","kernel":"crc","scale":1}`)
	code, body := httpGet(t, cl.hs.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "degraded") {
		t.Fatalf("healthz with empty ring = %d %s, want 200 degraded", code, body)
	}
}

// TestShardOrphanAdoption: a result computed and stored by a worker that
// then died wholesale is adopted — served verbatim, not recomputed — by a
// different worker sharing the result store.
func TestShardOrphanAdoption(t *testing.T) {
	dir := t.TempDir()
	spec := `{"simulator":"strongarm","kernel":"crc","scale":3}`
	open := func() *store.Store {
		st, _, err := store.Open(dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	cl1 := startCluster(t, serve.Config{}, CoordinatorConfig{}, []WorkerConfig{{Node: "first", Store: open()}})
	want := finishedResult(t, cl1.hs.URL, submitJob(t, cl1.hs.URL, spec))
	if n := cl1.handles["first"].w.Executed(); n != 1 {
		t.Fatalf("first life executed %d jobs, want 1", n)
	}
	cl1.stop() // the first life is over; only the store survives

	cl2 := startCluster(t, serve.Config{}, CoordinatorConfig{}, []WorkerConfig{{Node: "second", Store: open()}})
	got := finishedResult(t, cl2.hs.URL, submitJob(t, cl2.hs.URL, spec))
	if got != want {
		t.Fatalf("adopted result differs from the original:\n%s\nvs\n%s", got, want)
	}
	second := cl2.handles["second"].w
	if second.Adopted() != 1 || second.Executed() != 0 {
		t.Fatalf("adopted=%d executed=%d, want the stored result adopted without re-execution",
			second.Adopted(), second.Executed())
	}
}

// TestShardSpillToFreeWorker: a job whose ring owner is busy runs on the
// worker with a free slot instead of queueing behind the owner's job, and
// the bytes are the same as anywhere else. Two 1-slot workers, two specs
// owned by the same worker, both held in flight by checkpoint delays:
// each worker must execute exactly one.
func TestShardSpillToFreeWorker(t *testing.T) {
	specs, _ := sameOwnerSpecs(t, []string{"w1", "w2"},
		`{"simulator":"pipe5","kernel":"crc","scale":1,"checkpoint_interval":2000,"max_cycles":%d}`, 2)
	cl := startCluster(t, serve.Config{}, CoordinatorConfig{}, []WorkerConfig{
		{Slots: 1, Fault: mustPlan(t, "worker.panic*-1:delay=10ms")},
		{Slots: 1, Fault: mustPlan(t, "worker.panic*-1:delay=10ms")},
	})
	ref := refServer(t)

	first := submitJob(t, cl.hs.URL, string(specs[0].Canonical()))
	inflightOwner(t, cl.coord)
	second := submitJob(t, cl.hs.URL, string(specs[1].Canonical()))
	for i, id := range []string{first, second} {
		got := finishedResult(t, cl.hs.URL, id)
		want := finishedResult(t, ref.URL, submitJob(t, ref.URL, string(specs[i].Canonical())))
		if got != want {
			t.Fatalf("spilled result differs from single-process:\n%s\nvs\n%s", got, want)
		}
	}
	for node, h := range cl.handles {
		if n := h.w.Executed(); n != 1 {
			t.Fatalf("worker %s executed %d jobs, want 1 each (the owner's second job must spill)", node, n)
		}
	}
	if n := cl.coord.Spills(); n != 1 {
		t.Fatalf("spills = %d, want 1", n)
	}
	if v := metricValue(t, cl.hs.URL, "rcpn_shard_spilled_total"); v != "1" {
		t.Fatalf("rcpn_shard_spilled_total = %s, want 1", v)
	}
}

// TestShardConcurrentDispatchSlots: many concurrent Dispatch calls for
// jobs that share one ring owner fill every worker to exactly its Slots —
// no worker holds more while another has a free one — and only once all
// are full does the next job queue on the owner. Run it under -race: the
// choice and the slot claim share one critical section.
func TestShardConcurrentDispatchSlots(t *testing.T) {
	release := make(chan struct{})
	hold := func(s *serve.JobSpec) (batch.Stepper, error) {
		<-release
		return s.Build()
	}
	slots := map[string]int{"w1": 1, "w2": 2, "w3": 1}
	var wcfgs []WorkerConfig
	for _, node := range []string{"w1", "w2", "w3"} {
		wcfgs = append(wcfgs, WorkerConfig{Node: node, Slots: slots[node], Build: hold})
	}
	cl := startCluster(t, serve.Config{}, CoordinatorConfig{}, wcfgs)
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before the cluster stops

	const full = 4 // the sum of slots
	specs, owner := sameOwnerSpecs(t, []string{"w1", "w2", "w3"},
		`{"simulator":"pipe5","kernel":"crc","scale":1,"max_cycles":%d}`, full+1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, len(specs))
	dispatch := func(spec *serve.JobSpec) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cl.coord.Dispatch(ctx, spec.ID(), spec.Canonical(), nil)
			if err == nil && res.Failed {
				err = fmt.Errorf("job %s failed: %s", store.ShortID(spec.ID()), res.Payload)
			}
			errs <- err
		}()
	}
	waitInflight := func(n int) map[string]int {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			counts := inflightCounts(cl.coord)
			total := 0
			for _, c := range counts {
				total += c
			}
			if total == n {
				return counts
			}
			if time.Now().After(deadline) {
				t.Fatalf("in flight %v, want %d jobs", counts, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	for _, spec := range specs[:full] {
		dispatch(spec)
	}
	counts := waitInflight(full)
	for node, n := range counts {
		if n != slots[node] {
			t.Fatalf("in flight %v with slots %v: every worker should be exactly full", counts, slots)
		}
	}
	if n := cl.coord.Spills(); n != int64(full-slots[owner]) {
		t.Fatalf("spills = %d, want %d (every job past the owner's %d slot(s))", n, full-slots[owner], slots[owner])
	}

	dispatch(specs[full]) // every worker full: queues on the owner
	counts = waitInflight(full + 1)
	if counts[owner] != slots[owner]+1 {
		t.Fatalf("in flight %v: the job past capacity should queue on owner %s", counts, owner)
	}
	if n := cl.coord.Spills(); n != int64(full-slots[owner]) {
		t.Fatalf("spills = %d after an over-capacity job, want it unchanged at %d", n, full-slots[owner])
	}

	unblock()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
