package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestParallelSpecValidation: every malformed parallelism combination is a
// 400 at admission, never a failed job.
func TestParallelSpecValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	bad := []string{
		`{"simulator":"pipe5","kernel":"crc","parallelism":-1}`,                           // negative
		`{"simulator":"pipe5","kernel":"crc","parallelism":17}`,                           // over bound
		`{"simulator":"pipe5","kernel":"crc","parallelism":2,"checkpoint_interval":5000}`, // exclusive with ckpt
		`{"simulator":"pipe5","kernel":"crc","parallelism":2,"trace_events":64}`,          // exclusive with trace
		`{"simulator":"pipe5","kernel":"crc","parallel_mode":"sampled"}`,                  // mode without parallelism
		`{"simulator":"pipe5","kernel":"crc","parallelism":1,"parallel_mode":"sampled"}`,  // ditto after 1->0
		`{"simulator":"pipe5","kernel":"crc","parallelism":2,"parallel_mode":"adaptive"}`, // unknown mode
	}
	for _, b := range bad {
		code, _, data := post(t, hs.URL, b)
		if code != http.StatusBadRequest {
			t.Errorf("spec %q: code %d (%s), want 400", b, code, data)
		}
	}
}

// TestParallelCanonicalAddress: parallelism is omitempty and 1 normalizes
// to absent, so every pre-existing spec's content address is unchanged;
// parallelism > 1 (and the stitch mode) hash differently because segment
// drains perturb the cycle-accurate result.
func TestParallelCanonicalAddress(t *testing.T) {
	id := func(body string) string {
		t.Helper()
		sp, err := ParseSpec(strings.NewReader(body))
		if err != nil {
			t.Fatalf("spec %q: %v", body, err)
		}
		return sp.ID()
	}
	base := id(`{"simulator":"pipe5","kernel":"crc","scale":1}`)
	if got := id(`{"simulator":"pipe5","kernel":"crc","scale":1,"parallelism":0}`); got != base {
		t.Errorf("parallelism:0 changed the content address")
	}
	if got := id(`{"simulator":"pipe5","kernel":"crc","scale":1,"parallelism":1}`); got != base {
		t.Errorf("parallelism:1 changed the content address")
	}
	sp, err := ParseSpec(strings.NewReader(`{"simulator":"pipe5","kernel":"crc","scale":1,"parallelism":1,"parallel_mode":"exact"}`))
	if err != nil {
		t.Fatal(err)
	}
	if canon := string(sp.Canonical()); strings.Contains(canon, "parallel") {
		t.Errorf("canonical form of a serial spec mentions parallelism: %s", canon)
	}
	par := id(`{"simulator":"pipe5","kernel":"crc","scale":1,"parallelism":4}`)
	if par == base {
		t.Errorf("parallelism:4 did not change the content address")
	}
	if got := id(`{"simulator":"pipe5","kernel":"crc","scale":1,"parallelism":4,"parallel_mode":"exact"}`); got != par {
		t.Errorf("explicit exact mode hashed differently from the default")
	}
	if got := id(`{"simulator":"pipe5","kernel":"crc","scale":1,"parallelism":4,"parallel_mode":"sampled"}`); got == par {
		t.Errorf("sampled mode did not change the content address")
	}
}

// parallelResult extracts the single job record from a terminal GET body.
func parallelResult(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var v struct {
		Result struct {
			Jobs []map[string]any `json:"jobs"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad job body %s: %v", body, err)
	}
	if len(v.Result.Jobs) != 1 {
		t.Fatalf("want 1 job record, got %d: %s", len(v.Result.Jobs), body)
	}
	return v.Result.Jobs[0]
}

// TestParallelJobByteIdentity: the same exact-mode parallel job computed by
// two cold servers — different worker pools, different scheduling — yields
// byte-identical result payloads, and the result carries the segment
// extras.
func TestParallelJobByteIdentity(t *testing.T) {
	spec := `{"simulator":"pipe5","kernel":"crc","parallelism":3,"profile":true}`
	var bodies [2][]byte
	for i, workers := range []int{1, 4} {
		_, hs := newTestServer(t, Config{Workers: workers})
		r := submit(t, hs.URL, spec)
		bodies[i] = waitState(t, hs.URL, r.ID)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("parallel job not byte-identical across cold servers:\n%s\n%s", bodies[0], bodies[1])
	}
	rec := parallelResult(t, bodies[0])
	extra, ok := rec["extra"].(map[string]any)
	if !ok {
		t.Fatalf("result has no extras: %s", bodies[0])
	}
	if extra["segments"] != float64(3) {
		t.Errorf("extra.segments = %v, want 3", extra["segments"])
	}
	if rec["stalls"] == nil {
		t.Errorf("profiled parallel job has no stall snapshot")
	}
}

// TestParallelSampledJob: sampled mode completes and reports its error
// bound in the extras.
func TestParallelSampledJob(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4})
	spec := `{"simulator":"strongarm","kernel":"crc","parallelism":4,"parallel_mode":"sampled"}`
	r := submit(t, hs.URL, spec)
	body := waitState(t, hs.URL, r.ID)
	rec := parallelResult(t, body)
	if rec["error"] != nil && rec["error"] != "" {
		t.Fatalf("sampled job failed: %s", body)
	}
	extra, ok := rec["extra"].(map[string]any)
	if !ok {
		t.Fatalf("result has no extras: %s", body)
	}
	if _, ok := extra["err_bound_pct"]; !ok {
		t.Errorf("sampled result missing err_bound_pct: %v", extra)
	}
	if extra["adopted"] != extra["segments"] {
		t.Errorf("sampled mode must adopt every segment: %v", extra)
	}
}

// TestParallelSampledPartialConfig: a sampled job that overrides only the
// D cache finishes, and the override shows in its cycles. Its leader must
// warm the spec's D cache beside the engine's default I cache and
// predictor, the units each segment builds and restores into.
func TestParallelSampledPartialConfig(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4})
	const spec = `{"simulator":"strongarm","kernel":"crc","parallelism":4,"parallel_mode":"sampled"%s}`
	var cycles [2]any
	for i, config := range []string{"", `,"config":{"dcache":{"sets":1,"ways":1,"line_bytes":32,"hit_latency":1,"miss_latency":24}}`} {
		r := submit(t, hs.URL, fmt.Sprintf(spec, config))
		body := waitState(t, hs.URL, r.ID)
		rec := parallelResult(t, body)
		if rec["error"] != nil && rec["error"] != "" {
			t.Fatalf("sampled job%s failed: %s", config, body)
		}
		cycles[i] = rec["cycles"]
	}
	if cycles[0] == cycles[1] {
		t.Errorf("a 1-line D cache left the sampled job's cycles at %v", cycles[0])
	}
}

// TestParallelFinalProgress: once an exact-mode and a sampled-mode parallel
// job finish, the job's progress — the counters a finished job's events
// stream reports — equals the result's cycles and instructions, even
// though sampled-mode totals can run past the stitched result while the
// job runs.
func TestParallelFinalProgress(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	for _, spec := range []string{
		`{"simulator":"pipe5","kernel":"crc","parallelism":3}`,
		`{"simulator":"strongarm","kernel":"crc","parallelism":4,"parallel_mode":"sampled"}`,
	} {
		r := submit(t, hs.URL, spec)
		rec := parallelResult(t, waitState(t, hs.URL, r.ID))
		if rec["error"] != nil && rec["error"] != "" {
			t.Fatalf("spec %s failed: %v", spec, rec["error"])
		}
		code, raw := get(t, hs.URL+"/v1/jobs/"+r.ID+"/events")
		if code != http.StatusOK {
			t.Fatalf("GET events = %d: %s", code, raw)
		}
		var prog progressBody
		for _, line := range strings.Split(string(raw), "\n") {
			if data, ok := strings.CutPrefix(line, "data: "); ok && strings.Contains(data, `"cycles"`) {
				if err := json.Unmarshal([]byte(data), &prog); err != nil {
					t.Fatalf("bad progress event %q: %v", data, err)
				}
			}
		}
		if float64(prog.Cycles) != rec["cycles"] || float64(prog.Instret) != rec["instructions"] {
			t.Errorf("spec %s: final progress (%d, %d), result (%v, %v)",
				spec, prog.Cycles, prog.Instret, rec["cycles"], rec["instructions"])
		}
	}
}
