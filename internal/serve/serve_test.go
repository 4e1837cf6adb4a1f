package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rcpn/internal/batch"
	"rcpn/internal/obsv"
)

// newTestServer boots a Server behind httptest. Callers must Close the
// httptest server and Drain the serve.Server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SSEInterval == 0 {
		cfg.SSEInterval = 10 * time.Millisecond
	}
	if cfg.Chunk == 0 {
		cfg.Chunk = 4096
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Drain(0)
	})
	return s, hs
}

func post(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// submit posts a spec and returns the decoded response.
func submit(t *testing.T, url, body string) submitResponse {
	t.Helper()
	code, _, data := post(t, url, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", code, data)
	}
	var r submitResponse
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("bad submit response %q: %v", data, err)
	}
	return r
}

// waitState polls the job until it reaches a terminal state and returns
// the full GET body.
func waitState(t *testing.T, url, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, data := get(t, url+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job = %d: %s", code, data)
		}
		var v struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == StateDone || v.State == StateFailed {
			return data
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metric scrapes /v1/metrics — validating the whole page as Prometheus
// text format 0.0.4 on every call — and returns the value of one series,
// named either bare (`rcpn_cache_hits_total`) or with its label set
// (`rcpn_jobs{state="running"}`).
func metric(t *testing.T, url, series string) float64 {
	t.Helper()
	_, data := get(t, url+"/v1/metrics")
	if _, err := obsv.ValidateProm(data); err != nil {
		t.Fatalf("metrics page is not valid Prometheus text format: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("series %s: unparsable value %q", series, rest)
		}
		return f
	}
	t.Fatalf("series %s not found on the metrics page", series)
	return 0
}

const crcSpec = `{"simulator":"strongarm","kernel":"crc","scale":1}`

// TestCacheHitByteIdentical: the same spec submitted twice returns one
// content address; the second submission is a cache hit and the result
// payload is byte-for-byte what a completely fresh server computes.
func TestCacheHitByteIdentical(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})

	r1 := submit(t, hs.URL, crcSpec)
	body1 := waitState(t, hs.URL, r1.ID)

	r2 := submit(t, hs.URL, crcSpec)
	if r2.ID != r1.ID {
		t.Fatalf("content address changed: %s vs %s", r1.ID, r2.ID)
	}
	if !r2.Cached {
		t.Fatalf("second submission not served from cache: %+v", r2)
	}
	body2 := waitState(t, hs.URL, r2.ID)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached payload differs:\n%s\n----\n%s", body1, body2)
	}
	if got := metric(t, hs.URL, "rcpn_cache_misses_total"); got != 1 {
		t.Fatalf("cache.misses = %v, want 1", got)
	}
	if got := metric(t, hs.URL, "rcpn_cache_hits_total"); got != 1 {
		t.Fatalf("cache.hits = %v, want 1", got)
	}

	// Determinism across processes: a fresh server computes the identical
	// bytes, so a cached result is indistinguishable from a fresh run.
	_, hs2 := newTestServer(t, Config{Workers: 1})
	r3 := submit(t, hs2.URL, crcSpec)
	if r3.ID != r1.ID {
		t.Fatalf("content address not stable across servers")
	}
	body3 := waitState(t, hs2.URL, r3.ID)
	if !bytes.Equal(body1, body3) {
		t.Fatalf("fresh run differs from cached result:\n%s\n----\n%s", body1, body3)
	}
}

// TestCanonicalization: field order, whitespace, defaulted fields and
// name case all hash to the same content address.
func TestCanonicalization(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	variants := []string{
		`{"simulator":"pipe5","kernel":"crc","scale":1}`,
		`{"kernel":"crc","simulator":"pipe5"}`,
		`{ "simulator" : "PIPE5", "kernel" : "CRC", "scale" : 0 }`,
	}
	var ids []string
	for _, v := range variants {
		ids = append(ids, submit(t, hs.URL, v).ID)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[0] {
			t.Fatalf("variant %d hashed differently: %s vs %s", i, ids[i], ids[0])
		}
	}
	if got := metric(t, hs.URL, "rcpn_cache_misses_total"); got != 1 {
		t.Fatalf("cache.misses = %v, want 1 (variants must collapse)", got)
	}
}

// TestSingleflightCollapse: concurrent identical submissions collapse to
// one enqueued job; every client gets the same id and, eventually, the
// same bytes. Run with ≥8 concurrent clients (the acceptance bar).
func TestSingleflightCollapse(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	const clients = 8
	spec := `{"simulator":"ssim","kernel":"crc"}`

	var wg sync.WaitGroup
	ids := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = submit(t, hs.URL, spec).ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("client %d got id %s, client 0 got %s", i, ids[i], ids[0])
		}
	}
	want := waitState(t, hs.URL, ids[0])
	var bodies [clients][]byte
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = waitState(t, hs.URL, ids[i])
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	if got := metric(t, hs.URL, "rcpn_cache_misses_total"); got != 1 {
		t.Fatalf("cache.misses = %v, want 1 (submissions must collapse)", got)
	}
	if hits := metric(t, hs.URL, "rcpn_cache_hits_total") + metric(t, hs.URL, "rcpn_cache_coalesced_total"); hits != clients-1 {
		t.Fatalf("hits+coalesced = %v, want %d", hits, clients-1)
	}
}

// blockingStepper parks until released, then finishes instantly.
type blockingStepper struct {
	release <-chan struct{}
	pos     int64
}

func (b *blockingStepper) Pos() int64                { return b.pos }
func (b *blockingStepper) Progress() (int64, uint64) { return b.pos, uint64(b.pos) }
func (b *blockingStepper) StepTo(limit int64) (bool, error) {
	<-b.release
	b.pos = limit
	return true, nil
}

// endlessStepper advances forever; only Drive's context checks stop it.
type endlessStepper struct{ pos int64 }

func (e *endlessStepper) Pos() int64                { return e.pos }
func (e *endlessStepper) Progress() (int64, uint64) { return e.pos, uint64(e.pos) }
func (e *endlessStepper) StepTo(limit int64) (bool, error) {
	e.pos = limit
	time.Sleep(time.Millisecond) // simulate work so cancellation has a window
	return false, nil
}

// distinct job specs for tests that need several different content
// addresses without several real workloads.
func specN(n int) string {
	return fmt.Sprintf(`{"simulator":"pipe5","kernel":"crc","scale":%d}`, n)
}

// TestBackpressure429: with one busy worker and a one-deep queue, a third
// distinct job is refused with 429 + Retry-After instead of growing
// memory; after the backlog clears, the same spec is accepted.
func TestBackpressure429(t *testing.T) {
	release := make(chan struct{})
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.buildOverride = func(*JobSpec) (batch.Stepper, error) {
		return &blockingStepper{release: release}, nil
	}

	r1 := submit(t, hs.URL, specN(1)) // claimed by the worker, blocks
	// Wait for the worker to claim it so the queue is empty.
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, hs.URL, `rcpn_jobs{state="running"}`) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	submit(t, hs.URL, specN(2)) // fills the queue

	code, hdr, data := post(t, hs.URL, specN(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("third job: code %d, want 429: %s", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := metric(t, hs.URL, "rcpn_rejected_queue_full_total"); got != 1 {
		t.Fatalf("rejected_queue_full = %v, want 1", got)
	}

	close(release)
	waitState(t, hs.URL, r1.ID)
	// Backlog cleared: the spec that was shed is admitted on retry.
	r3 := submit(t, hs.URL, specN(3))
	waitState(t, hs.URL, r3.ID)
}

// TestInvalidSpecs: admission rejects malformed requests with 400 and
// nothing reaches the queue.
func TestInvalidSpecs(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	bad := []string{
		`{"simulator":"vax","kernel":"crc"}`,                               // unknown simulator
		`{"simulator":"pipe5"}`,                                            // neither kernel nor source
		`{"simulator":"pipe5","kernel":"crc","source":"nop"}`,              // both
		`{"simulator":"pipe5","kernel":"doom"}`,                            // unknown kernel
		`{"simulator":"pipe5","kernel":"crc","scale":1000}`,                // scale over bound
		`{"simulator":"pipe5","kernel":"crc","max_cycles":-1}`,             // negative cap
		`{"simulator":"pipe5","kernel":"crc","typo_field":1}`,              // unknown field
		`{"simulator":"iss","kernel":"crc","config":{"bpred":"nottaken"}}`, // config on functional sim
		`{"simulator":"pipe5","kernel":"crc","config":{"bpred":"tage"}}`,   // unknown predictor
		`{"simulator":"pipe5","kernel":"crc","config":{"icache":{"sets":3,"ways":1,"line_bytes":32,"hit_latency":1,"miss_latency":10}}}`, // non-power-of-two sets
		`{"simulator":"pipe5","source":"this is not assembly"}`,                                                                          // broken source
		`not json at all`,
	}
	for _, b := range bad {
		code, _, data := post(t, hs.URL, b)
		if code != http.StatusBadRequest {
			t.Errorf("spec %q: code %d (%s), want 400", b, code, data)
		}
	}
	if got := metric(t, hs.URL, "rcpn_rejected_invalid_total"); got != float64(len(bad)) {
		t.Fatalf("rejected_invalid = %v, want %d", got, len(bad))
	}
	if got := metric(t, hs.URL, "rcpn_cache_misses_total"); got != 0 {
		t.Fatalf("invalid specs reached the queue: misses = %v", got)
	}
}

// TestInlineSource: inline assembly is assembled, simulated and cached by
// content address like any kernel job.
func TestInlineSource(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	src := "start:\n\tmov r0, #7\n\tswi 1\n\tmov r0, #0\n\tswi 0\n"
	body, err := json.Marshal(map[string]any{"simulator": "iss", "source": src})
	if err != nil {
		t.Fatal(err)
	}
	r := submit(t, hs.URL, string(body))
	data := waitState(t, hs.URL, r.ID)
	var v struct {
		State  string `json:"state"`
		Result struct {
			Jobs []struct {
				Workload string `json:"workload"`
				Instret  uint64 `json:"instructions"`
			} `json:"jobs"`
		} `json:"result"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone {
		t.Fatalf("inline job state %s: %s", v.State, data)
	}
	if len(v.Result.Jobs) != 1 || v.Result.Jobs[0].Workload != "inline" || v.Result.Jobs[0].Instret == 0 {
		t.Fatalf("unexpected result: %s", data)
	}
}

// TestSourceAssembledOnce: a source job's program is the one Normalize
// assembled, shared read-only by every build (as tpar segment builds run
// concurrently), and outside the canonical bytes.
func TestSourceAssembledOnce(t *testing.T) {
	sp, err := ParseSpec(strings.NewReader(`{"simulator":"strongarm","source":"mov r0, #0\nswi 0\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.prog == nil {
		t.Fatal("Normalize kept no program")
	}
	job := *sp // the server keeps its own copy of the spec
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p, err := job.program(); err != nil || p != sp.prog {
				t.Errorf("program() = %p, %v; want the Normalized %p", p, err, sp.prog)
			}
			if _, err := job.Build(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if c := string(sp.Canonical()); strings.Contains(c, "prog") {
		t.Errorf("canonical bytes carry the program: %s", c)
	}
	raw := &JobSpec{Simulator: "strongarm", Source: "swi 0\n"}
	if _, err := raw.program(); err == nil {
		t.Error("program() of a source spec that skipped Normalize did not fail")
	}
}

// TestFinishedSourceJobDropsProgram: a terminal job's record stays in the
// result cache, but not the program it ran — neither after the run nor
// when a restarted server adopts the stored result.
func TestFinishedSourceJobDropsProgram(t *testing.T) {
	heldProgram := func(s *Server, id string) bool {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			t.Fatalf("job %s has no record", id)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.spec.prog != nil
	}
	dir := t.TempDir()
	body := `{"simulator":"strongarm","source":"mov r0, #0\nswi 0\n"}`
	s1, hs1 := newTestServer(t, durableConfig(t, dir))
	r := submit(t, hs1.URL, body)
	waitState(t, hs1.URL, r.ID)
	if heldProgram(s1, r.ID) {
		t.Error("finished job's record holds its program")
	}
	hs1.Close()
	s1.Drain(0)

	s2, hs2 := newTestServer(t, durableConfig(t, dir))
	defer func() { hs2.Close(); s2.Drain(0) }()
	if heldProgram(s2, r.ID) {
		t.Error("adopted terminal job's record holds its program")
	}
}

// TestSSEProgress: the events stream delivers progress (cycles retired)
// and a terminal state event, then closes.
func TestSSEProgress(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, SSEInterval: time.Millisecond, Chunk: 512})
	r := submit(t, hs.URL, `{"simulator":"xscale","kernel":"crc"}`)

	resp, err := http.Get(hs.URL + "/v1/jobs/" + r.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %s", ct)
	}
	raw, err := io.ReadAll(resp.Body) // server closes the stream at terminal state
	if err != nil {
		t.Fatal(err)
	}
	events := string(raw)
	if !strings.Contains(events, "event: state") {
		t.Fatalf("no state event:\n%s", events)
	}
	if !strings.Contains(events, `"state":"done"`) {
		t.Fatalf("no terminal done event:\n%s", events)
	}
	if !strings.Contains(events, "event: progress") || !strings.Contains(events, `"mcycles_per_sec"`) {
		t.Fatalf("no progress event with throughput:\n%s", events)
	}
}

// TestDrain: SIGTERM semantics — admission stops (healthz flips to 503,
// POST answers 503), the in-flight job is canceled at the grace deadline
// and recorded as a transient failure, and Drain returns.
func TestDrain(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	s.buildOverride = func(*JobSpec) (batch.Stepper, error) { return &endlessStepper{}, nil }

	r := submit(t, hs.URL, specN(1))
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, hs.URL, `rcpn_jobs{state="running"}`) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	if code, _ := get(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain = %d", code)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain(50 * time.Millisecond)
		close(drained)
	}()

	// healthz flips to not-ready and submissions are refused while draining.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if code, _ := get(t, hs.URL+"/healthz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never flipped during drain")
		}
		time.Sleep(time.Millisecond)
	}
	code, hdr, _ := post(t, hs.URL, specN(2))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain = %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 during drain without Retry-After")
	}

	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain hung: grace deadline did not cancel the endless job")
	}

	data := waitState(t, hs.URL, r.ID)
	var v struct {
		State  string `json:"state"`
		Result struct {
			Jobs []struct {
				Canceled bool `json:"canceled"`
			} `json:"jobs"`
		} `json:"result"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateFailed || len(v.Result.Jobs) != 1 || !v.Result.Jobs[0].Canceled {
		t.Fatalf("drained job not recorded as canceled: %s", data)
	}
}

// TestTransientFailureRetries: a drain-canceled job is not replayed from
// cache — resubmitting the spec after the failure re-runs it.
func TestTransientFailureRetries(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	s.buildOverride = func(*JobSpec) (batch.Stepper, error) { return &endlessStepper{}, nil }
	r := submit(t, hs.URL, specN(1))
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, hs.URL, `rcpn_jobs{state="running"}`) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain(10 * time.Millisecond)
	waitState(t, hs.URL, r.ID)

	// A fresh server (drain is terminal for a Server) must re-run, and a
	// deterministic result replaces the transient record.
	s2, hs2 := newTestServer(t, Config{Workers: 1})
	_ = s2
	r2 := submit(t, hs2.URL, specN(1))
	if r2.ID != r.ID {
		t.Fatalf("ids differ: %s vs %s", r2.ID, r.ID)
	}
	if r2.Cached {
		t.Fatal("fresh server claims cached result")
	}
	body := waitState(t, hs2.URL, r2.ID)
	if !strings.Contains(string(body), `"state":"done"`) && !strings.Contains(string(body), `"state": "done"`) {
		t.Fatalf("retry did not succeed: %s", body)
	}
}

// TestConcurrentMixedClients: ≥8 clients hammer different endpoints and
// specs at once; everything completes and the server stays consistent
// (run under -race in CI).
func TestConcurrentMixedClients(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	specs := []string{
		`{"simulator":"pipe5","kernel":"crc"}`,
		`{"simulator":"iss","kernel":"crc"}`,
		`{"simulator":"func","kernel":"crc"}`,
		`{"simulator":"pipe5","kernel":"adpcm"}`,
	}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				spec := specs[(c+k)%len(specs)]
				r := submit(t, hs.URL, spec)
				waitState(t, hs.URL, r.ID)
				get(t, hs.URL+"/v1/metrics")
				get(t, hs.URL+"/healthz")
			}
		}(c)
	}
	wg.Wait()
	if got := metric(t, hs.URL, "rcpn_cache_misses_total"); got != float64(len(specs)) {
		t.Fatalf("cache.misses = %v, want %d (one per distinct spec)", got, len(specs))
	}
	if got := metric(t, hs.URL, "rcpn_jobs_failed_total"); got != 0 {
		t.Fatalf("jobs.failed = %v, want 0", got)
	}
	if got := metric(t, hs.URL, "rcpn_jobs_done_total"); got != float64(len(specs)) {
		t.Fatalf("jobs.done = %v, want %d", got, len(specs))
	}
}

// TestCacheEviction: the LRU bound holds and evicted jobs disappear from
// the registry (404), bounding server memory.
func TestCacheEviction(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, CacheEntries: 2})
	var ids []string
	for n := 1; n <= 3; n++ {
		r := submit(t, hs.URL, fmt.Sprintf(`{"simulator":"iss","kernel":"crc","scale":%d}`, n))
		waitState(t, hs.URL, r.ID)
		ids = append(ids, r.ID)
	}
	if got := metric(t, hs.URL, "rcpn_cache_entries"); got != 2 {
		t.Fatalf("cache.entries = %v, want 2", got)
	}
	if code, _ := get(t, hs.URL+"/v1/jobs/"+ids[0]); code != http.StatusNotFound {
		t.Fatalf("evicted job still served: %d", code)
	}
	if code, _ := get(t, hs.URL+"/v1/jobs/"+ids[2]); code != http.StatusOK {
		t.Fatalf("recent job missing: %d", code)
	}
}

// TestUnknownJob404: asking for a job that never existed is a 404 on both
// the state and events endpoints.
func TestUnknownJob404(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	if code, _ := get(t, hs.URL+"/v1/jobs/"+strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d", code)
	}
	if code, _ := get(t, hs.URL+"/v1/jobs/"+strings.Repeat("0", 64)+"/events"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job events = %d", code)
	}
}
