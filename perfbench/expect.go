package main

import (
	"bufio"
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rcpn/internal/diffrun"
	"rcpn/internal/workload"
)

// The expected values every run checks against are generated once by
// `perfbench expect` and committed, so no run spends set-up time on
// reference simulations.
//
//go:embed expected
var expectedFS embed.FS

// engineExpect is expected/engines.json: per kernel, the ISS's final
// architectural state and every engine's final position (cycles; retired
// instructions for the ISS).
type engineExpect struct {
	Scale   int                     `json:"scale"`
	Kernels map[string]kernelExpect `json:"kernels"`
}

type kernelExpect struct {
	State diffrun.State    `json:"iss_state"`
	Pos   map[string]int64 `json:"pos"`
}

func loadEngineExpect() (*engineExpect, error) {
	b, err := expectedFS.ReadFile("expected/engines.json")
	if err != nil {
		return nil, err
	}
	var e engineExpect
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected/engines.json: %w", err)
	}
	if e.Scale != engineScale {
		return nil, fmt.Errorf("expected/engines.json is for scale %d, not %d: run perfbench expect", e.Scale, engineScale)
	}
	return &e, nil
}

// expectedResult is one line of a digest file: the SHA-256 of the result
// payload a job must be served, and the cycles that payload reports.
type expectedResult struct {
	digest string
	cycles int64
}

// loadDigests reads expected/<name>: one "key digest cycles" line per job
// kind, the key being a content address (serve-small) or a job kind
// (cluster-sweep, whose content addresses vary only in an unreachable cap).
func loadDigests(name string) (map[string]expectedResult, error) {
	b, err := expectedFS.ReadFile("expected/" + name)
	if err != nil {
		return nil, err
	}
	out := make(map[string]expectedResult)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			return nil, fmt.Errorf("expected/%s: malformed line %q", name, sc.Text())
		}
		c, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expected/%s: %w", name, err)
		}
		out[f[0]] = expectedResult{digest: f[1], cycles: c}
	}
	return out, sc.Err()
}

// writeExpected regenerates every expected file under perfbench/expected,
// the directory the binary embeds; run it from the repository root.
func writeExpected() error {
	out := filepath.Join("perfbench", "expected")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := expectEngines(out); err != nil {
		return err
	}
	if err := expectServeSmall(out); err != nil {
		return err
	}
	return expectClusterSweep(out)
}

func expectEngines(out string) error {
	exp := engineExpect{Scale: engineScale, Kernels: map[string]kernelExpect{}}
	engines := map[string]diffrun.Engine{}
	for _, e := range diffrun.Engines() {
		engines[e.Name] = e
	}
	for _, k := range kernels {
		p, err := workload.ByName(k).Program(engineScale)
		if err != nil {
			return err
		}
		golden, err := diffrun.RunPlain(engines["iss"], p, 1<<40)
		if err != nil {
			return fmt.Errorf("iss on %s: %w", k, err)
		}
		ke := kernelExpect{State: golden, Pos: map[string]int64{}}
		for _, name := range benchEngines {
			st, state, err := engines[name].Build(p)
			if err != nil {
				return err
			}
			if done, err := st.StepTo(1 << 40); err != nil || !done {
				return fmt.Errorf("%s on %s did not finish: %v", name, k, err)
			}
			if d := state().Diff(golden); len(d) > 0 {
				return fmt.Errorf("%s on %s differs from the ISS: %v", name, k, d)
			}
			ke.Pos[name] = st.Pos()
		}
		exp.Kernels[k] = ke
	}
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "engines.json"), append(b, '\n'), 0o644)
}

// expectJobs runs every (key, body) on a fresh memory-only server, two at
// a time, and returns each key's payload digest and cycles.
func expectJobs(keys []string, bodies map[string][][]byte, ids map[string][]string) (map[string]expectedResult, error) {
	s, err := newServer("", nil)
	if err != nil {
		return nil, err
	}
	defer s.close()
	var h http.Handler = s.srv
	res := make(map[string]expectedResult, len(keys))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	work := make(chan string)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range work {
				// Every body of one key must be served the same payload.
				var got []string
				var cycles int64
				var err error
				for i, body := range bodies[key] {
					jo := &jobOutcome{id: ids[key][i], due: time.Now()}
					payload := exchange(h, jo, body, nil)
					if jo.err != "" {
						err = fmt.Errorf("%s: %s", key, jo.err)
						break
					}
					got = append(got, digest(payload))
					if cycles, err = payloadCycles(payload); err != nil {
						break
					}
				}
				mu.Lock()
				switch {
				case err != nil:
					firstErr = err
				case len(got) > 1 && got[0] != got[1]:
					firstErr = fmt.Errorf("%s: payload depends on max_cycles", key)
				default:
					res[key] = expectedResult{digest: got[0], cycles: cycles}
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		work <- k
	}
	close(work)
	wg.Wait()
	return res, firstErr
}

func writeDigests(path string, keys []string, res map[string]expectedResult) error {
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s %d\n", k, res[k].digest, res[k].cycles)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func expectServeSmall(out string) error {
	corpus, err := smallCorpus()
	if err != nil {
		return err
	}
	var keys []string
	bodies, ids := map[string][][]byte{}, map[string][]string{}
	for _, j := range corpus {
		if _, dup := bodies[j.ID]; dup {
			continue
		}
		keys = append(keys, j.ID)
		bodies[j.ID] = [][]byte{j.Body}
		ids[j.ID] = []string{j.ID}
	}
	res, err := expectJobs(keys, bodies, ids)
	if err != nil {
		return err
	}
	return writeDigests(filepath.Join(out, "serve-small.txt"), keys, res)
}

func expectClusterSweep(out string) error {
	var keys []string
	bodies, ids := map[string][][]byte{}, map[string][]string{}
	for _, c := range sweepCombos() {
		if _, dup := bodies[c.key()]; dup {
			continue
		}
		keys = append(keys, c.key())
		// Two caps, both out of reach: the payload must not depend on it.
		for _, cap := range []int64{sweepCap, sweepCap + 7919} {
			spec, err := c.spec(cap)
			if err != nil {
				return err
			}
			bodies[c.key()] = append(bodies[c.key()], spec.Canonical())
			ids[c.key()] = append(ids[c.key()], spec.ID())
		}
	}
	res, err := expectJobs(keys, bodies, ids)
	if err != nil {
		return err
	}
	return writeDigests(filepath.Join(out, "cluster-sweep.txt"), keys, res)
}
