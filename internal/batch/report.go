package batch

import (
	"bytes"
	"encoding/json"
	"fmt"

	"rcpn/internal/obsv"
)

// JSON report, schema "rcpn-batch/v1". Two requirements shape it:
//
//   - Deterministic: the same job matrix must serialize to the same bytes no
//     matter how many workers ran it or how fast the host was. Results are
//     emitted in submission order and wall-clock fields are opt-in, so the
//     default report is a pure function of the simulated outcomes. (Extra
//     metric maps are fine: encoding/json sorts map keys.)
//   - Machine-readable: one object per job with the cell coordinates spelled
//     out, so downstream tooling can pivot without parsing table text.

// Schema identifies the report format.
const Schema = "rcpn-batch/v1"

type jsonJob struct {
	Simulator string              `json:"simulator"`
	Workload  string              `json:"workload"`
	Config    string              `json:"config,omitempty"`
	Interval  string              `json:"interval,omitempty"`
	Cycles    int64               `json:"cycles"`
	Instret   uint64              `json:"instructions"`
	CPI       float64             `json:"cpi"`
	Extra     map[string]float64  `json:"extra,omitempty"`
	Stalls    *obsv.StallSnapshot `json:"stalls,omitempty"`
	Error     string              `json:"error,omitempty"`
	Panicked  bool                `json:"panicked,omitempty"`
	TimedOut  bool                `json:"timed_out,omitempty"`
	Canceled  bool                `json:"canceled,omitempty"`
	WallSecs  float64             `json:"wall_seconds,omitempty"`
}

type jsonReport struct {
	Schema   string    `json:"schema"`
	Workers  int       `json:"workers,omitempty"`
	WallSecs float64   `json:"wall_seconds,omitempty"`
	Jobs     []jsonJob `json:"jobs"`
}

// JSON renders the report. With includeWall false (the deterministic form),
// worker count and every wall-clock field are omitted and the bytes depend
// only on the job outcomes; with true, host timing is embedded for
// performance reporting.
func (rep *Report) JSON(includeWall bool) ([]byte, error) {
	out := jsonReport{Schema: Schema, Jobs: make([]jsonJob, 0, len(rep.Results))}
	if includeWall {
		out.Workers = rep.Workers
		out.WallSecs = rep.Wall.Seconds()
	}
	for _, r := range rep.Results {
		j := jsonJob{
			Simulator: r.Simulator, Workload: r.Workload,
			Config: r.Config, Interval: r.Interval,
			Cycles: r.Cycles, Instret: r.Instret, CPI: r.CPI(),
			Extra: r.Extra, Stalls: r.Stalls, Error: r.Err,
			Panicked: r.Panicked, TimedOut: r.TimedOut, Canceled: r.Canceled,
		}
		if includeWall {
			j.WallSecs = r.Wall.Seconds()
		}
		out.Jobs = append(out.Jobs, j)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// JobPayload renders one finished job as its deterministic one-job report:
// the bytes a served job's result holds, whichever process ran it. A
// render failure (impossible for plain data) still yields a one-job report,
// carrying the error, so the job can be recorded as terminal.
func JobPayload(r Result) []byte {
	payload, err := (&Report{Results: []Result{r}}).JSON(false)
	if err != nil {
		return []byte(fmt.Sprintf(`{"schema":%q,"jobs":[{"error":%q}]}`, Schema, err))
	}
	return payload
}
