package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"
)

// The service workloads call serve.Server through its http.Handler in
// process, so the only sockets a run opens are the RPC links under test.

func callHandler(h http.Handler, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// jobOutcome is one job as the client saw it.
type jobOutcome struct {
	id                  string
	due, sent, terminal time.Time
	dup                 bool // answered from the cache or joined an in-flight job
	ok                  bool // done and the payload digest matched
	err                 string
}

// roundTrip runs one job through exchange and checks the payload's SHA-256
// against want. jo.id and jo.due must be set; the other fields are filled
// in.
func roundTrip(h http.Handler, jo *jobOutcome, body []byte, hdr map[string]string, want string) {
	payload := exchange(h, jo, body, hdr)
	if jo.err != "" {
		return
	}
	if got := digest(payload); got != want {
		jo.err = fmt.Sprintf("result digest %s, expected %s", got, want)
		return
	}
	jo.ok = true
}

// exchange submits body, waits for the job's terminal event on its SSE
// stream, which the server ends as soon as the job completes (no polling),
// and fetches the result payload. Failures are left in jo.err.
func exchange(h http.Handler, jo *jobOutcome, body []byte, hdr map[string]string) []byte {
	jo.sent = time.Now()
	rr := callHandler(h, http.MethodPost, "/v1/jobs", body, hdr)
	if rr.Code != http.StatusAccepted {
		jo.err = fmt.Sprintf("submit: status %d: %s", rr.Code, strings.TrimSpace(rr.Body.String()))
		return nil
	}
	var ack struct {
		ID        string `json:"id"`
		Cached    bool   `json:"cached"`
		Coalesced bool   `json:"coalesced"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &ack); err != nil {
		jo.err = "submit: " + err.Error()
		return nil
	}
	if ack.ID != jo.id {
		jo.err = fmt.Sprintf("submit: server id %s, content address %s", ack.ID, jo.id)
		return nil
	}
	jo.dup = ack.Cached || ack.Coalesced
	rr = callHandler(h, http.MethodGet, "/v1/jobs/"+jo.id+"/events", nil, nil)
	jo.terminal = time.Now()
	if state := lastState(rr.Body.String()); state != "done" {
		jo.err = fmt.Sprintf("job ended %q", state)
		return nil
	}
	payload, err := fetchResult(h, jo.id)
	if err != nil {
		jo.err = err.Error()
	}
	return payload
}

// lastState returns the state carried by the stream's last "state" event.
func lastState(stream string) string {
	state := ""
	for _, ev := range strings.Split(stream, "\n\n") {
		if !strings.HasPrefix(ev, "event: state\n") {
			continue
		}
		var v struct {
			State string `json:"state"`
		}
		if json.Unmarshal([]byte(strings.TrimPrefix(ev, "event: state\ndata: ")), &v) == nil {
			state = v.State
		}
	}
	return state
}

// fetchResult returns the job's result payload as served.
func fetchResult(h http.Handler, id string) ([]byte, error) {
	rr := callHandler(h, http.MethodGet, "/v1/jobs/"+id, nil, nil)
	if rr.Code != http.StatusOK {
		return nil, fmt.Errorf("fetch: status %d", rr.Code)
	}
	var v struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &v); err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	return v.Result, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// payloadCycles reads the simulated cycles out of a one-job result payload.
func payloadCycles(payload []byte) (int64, error) {
	var v struct {
		Jobs []struct {
			Cycles int64 `json:"cycles"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(payload, &v); err != nil || len(v.Jobs) != 1 {
		return 0, fmt.Errorf("payload is not a one-job report")
	}
	return v.Jobs[0].Cycles, nil
}
