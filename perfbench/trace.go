package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/obsv"
	"rcpn/internal/rpc"
	"rcpn/internal/serve"
)

// span is one timed call across a layer boundary. Spans of one job share
// Job; Parent is the ID of the span that caused this one (0: none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so the measured code paths
// carry only a nil check.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	anchors map[string]int64 // job -> span new child spans hang under
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), anchors: make(map[string]int64)}
}

// add records a finished span and returns its ID.
func (r *recorder) add(name, job string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return id
}

// open records a span whose end is not known yet; close fills it in.
func (r *recorder) open(name, job string, parent int64, start time.Time) int64 {
	return r.add(name, job, parent, start, start)
}

func (r *recorder) close(id int64, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// anchor returns the span that new spans of job hang under.
func (r *recorder) anchor(job string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.anchors[job]
}

func (r *recorder) setAnchor(job string, id int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.anchors[job] = id
	r.mu.Unlock()
}

// byName returns a copy of the spans called name.
func (r *recorder) byName(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// perJob sums the durations of the spans called name, per job.
func (r *recorder) perJob(name string) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range r.byName(name) {
		out[s.Job] += s.dur()
	}
	return out
}

// countPerJob counts the spans called name, per job.
func (r *recorder) countPerJob(name string) map[string]int {
	out := make(map[string]int)
	for _, s := range r.byName(name) {
		out[s.Job]++
	}
	return out
}

// durations returns the durations of the spans called name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.byName(name) {
		out = append(out, s.dur())
	}
	return out
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- boundary wrappers -----------------------------------------------------

// tracedHandler wraps serve.Server's http.Handler: one span per request,
// named by method and route, tagged with the job it concerns.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	name, job := "http.other", ""
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		name = "http.submit"
		job = r.Header.Get(jobHeader)
		if rr, ok := w.(*httptest.ResponseRecorder); ok && isDupAck(rr.Body.Bytes()) {
			name = "http.submit.dup"
		}
	case strings.HasSuffix(r.URL.Path, "/events"):
		name = "http.events"
		job = strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/events")
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		name = "http.fetch"
		job = strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	case r.URL.Path == "/v1/metrics":
		name = "http.metrics"
	}
	h.rec.add(name, job, h.rec.anchor(job), start, end)
}

// isDupAck reports whether a submit acknowledgement says the job was
// answered from the cache or joined an identical in-flight job.
func isDupAck(body []byte) bool {
	var ack struct{ Cached, Coalesced bool }
	return json.Unmarshal(body, &ack) == nil && (ack.Cached || ack.Coalesced)
}

// jobHeader carries the client's precomputed content address on POST, so
// the submit span is tagged before the server has parsed the body. The
// server ignores it.
const jobHeader = "X-Bench-Job"

// tracedDispatcher wraps a serve.Dispatcher (the shard coordinator): one
// span per Dispatch call, which becomes the parent of the worker's spans.
type tracedDispatcher struct {
	next serve.Dispatcher
	rec  *recorder
}

func (d tracedDispatcher) Dispatch(ctx context.Context, id string, spec []byte,
	progress func(cycles int64, instret uint64)) (*rpc.Result, error) {
	sid := d.rec.open("dispatch", id, d.rec.anchor(id), time.Now())
	d.rec.setAnchor(id, sid)
	res, err := d.next.Dispatch(ctx, id, spec, progress)
	d.rec.close(sid, time.Now())
	return res, err
}

func (d tracedDispatcher) Live() int { return d.next.Live() }

// jobSet is the set of jobs the shard workers built an engine for.
type jobSet struct {
	mu  sync.Mutex
	ids map[string]bool
}

func newJobSet() *jobSet { return &jobSet{ids: make(map[string]bool)} }

func (j *jobSet) add(id string) {
	j.mu.Lock()
	j.ids[id] = true
	j.mu.Unlock()
}

func (j *jobSet) has(id string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ids[id]
}

// workerBuild is cluster-sweep's shard.WorkerConfig.Build. It builds the
// spec's engine the way the worker would and notes the job in ran, so the
// run can check that every job executed on a shard worker. With rec set,
// it records the build and returns a stepper that records every step and
// checkpoint call as a span.
func workerBuild(ran *jobSet, rec *recorder) func(*serve.JobSpec) (batch.Stepper, error) {
	return func(spec *serve.JobSpec) (batch.Stepper, error) {
		id := spec.ID()
		ran.add(id)
		start := time.Now()
		st, err := spec.Build()
		if rec == nil || err != nil {
			return st, err
		}
		rec.add("worker.build", id, rec.anchor(id), start, time.Now())
		inner, ok := st.(checkpointInstrumentable)
		if !ok {
			return nil, fmt.Errorf("simulator %q has no checkpoint support", spec.Simulator)
		}
		return &tracedStepper{inner: inner, rec: rec, job: id}, nil
	}
}

// checkpointInstrumentable is what every service engine implements: the
// executor type-asserts both interfaces, so the traced stepper forwards
// both.
type checkpointInstrumentable interface {
	batch.CheckpointStepper
	obsv.Instrumentable
}

type tracedStepper struct {
	inner checkpointInstrumentable
	rec   *recorder
	job   string
}

func (t *tracedStepper) timed(name string, f func()) {
	start := time.Now()
	f()
	t.rec.add(name, t.job, t.rec.anchor(t.job), start, time.Now())
}

func (t *tracedStepper) Pos() int64                        { return t.inner.Pos() }
func (t *tracedStepper) Progress() (int64, uint64)         { return t.inner.Progress() }
func (t *tracedStepper) AttachTrace(tr *obsv.Tracer)       { t.inner.AttachTrace(tr) }
func (t *tracedStepper) EnableProfile() *obsv.StallProfile { return t.inner.EnableProfile() }

func (t *tracedStepper) StepTo(limit int64) (exited bool, err error) {
	t.timed("worker.step", func() { exited, err = t.inner.StepTo(limit) })
	return
}

func (t *tracedStepper) StepToRetired(target uint64, posLimit int64) (exited bool, err error) {
	t.timed("worker.step", func() { exited, err = t.inner.StepToRetired(target, posLimit) })
	return
}

func (t *tracedStepper) DrainBoundary() (err error) {
	t.timed("worker.step", func() { err = t.inner.DrainBoundary() })
	return
}

func (t *tracedStepper) Checkpoint() (ck *ckpt.Checkpoint, err error) {
	t.timed("worker.ckpt", func() { ck, err = t.inner.Checkpoint() })
	return
}

func (t *tracedStepper) Restore(ck *ckpt.Checkpoint) (err error) {
	t.timed("worker.restore", func() { err = t.inner.Restore(ck) })
	return
}

// scrapeMetrics reads the server's Prometheus page through its handler
// and returns the unlabeled series.
func scrapeMetrics(h http.Handler) (map[string]float64, error) {
	rr := callHandler(h, http.MethodGet, "/v1/metrics", nil, nil)
	if rr.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", rr.Code)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscan(line, &name, &v); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
