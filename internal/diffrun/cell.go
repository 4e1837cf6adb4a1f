package diffrun

import (
	"context"
	"fmt"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/iss"
	"rcpn/internal/workload"
)

// Bar is one bar of the paper's Figure 10: the label reports print and the
// registry engine it measures.
type Bar struct {
	Label  string
	Engine string
	// CPI marks the StrongARM-class five-stage simulators whose CPI the
	// paper's Figure 11 compares.
	CPI bool
}

// Fig10 returns the Figure 10 bars in report order: the paper's three bars
// plus, beyond them, a hand-written direct-style five-stage simulator,
// showing the generated RCPN simulator reaches hand-written performance
// (the paper's §5 FastSim comparison).
func Fig10() []Bar {
	return []Bar{
		{Label: "SimpleScalar-Arm", Engine: "ssim", CPI: true},
		{Label: "RCPN-XScale", Engine: "xscale"},
		{Label: "RCPN-StrongARM", Engine: "strongarm", CPI: true},
		{Label: "hand-written-5stage", Engine: "pipe5"},
	}
}

// RunCell builds a fresh instance of e on p and runs it to program exit
// through batch.Drive, so a canceled ctx stops it at the next chunk
// boundary. It is the timed region every evaluation front end shares; the
// build is inside it.
func RunCell(ctx context.Context, e Engine, p *arm.Program) (batch.Metrics, error) {
	st, _, err := e.Build(p)
	if err != nil {
		return batch.Metrics{}, err
	}
	err = batch.Drive(ctx, st, 0, 0, nil)
	c, i := st.Progress()
	return batch.Metrics{Cycles: c, Instret: i}, err
}

// GoldenInstret runs p on the ISS golden model and returns the number of
// instructions it retires.
func GoldenInstret(p *arm.Program) (uint64, error) {
	c := iss.New(p, 0)
	c.MaxInstrs = 2_000_000_000
	err := c.Run()
	return c.Instret, err
}

// CellJob is the batch job timing engine e on one workload through RunCell
// under a report label. It fails unless the run retires exactly golden
// instructions.
func CellJob(label, workload string, e Engine, p *arm.Program, golden uint64) batch.Job {
	return batch.Job{Simulator: label, Workload: workload,
		Run: func(ctx context.Context) (batch.Metrics, error) {
			m, err := RunCell(ctx, e, p)
			if err == nil && m.Instret != golden {
				err = fmt.Errorf("instret %d, golden %d — simulator bug", m.Instret, golden)
			}
			return m, err
		}}
}

// MatrixJobs returns the evaluation matrix as batch jobs: one CellJob per
// workload × bar, workload-major, each checked against the ISS golden run
// of its workload.
func MatrixJobs(bars []Bar, works []*workload.Workload, scale int) ([]batch.Job, error) {
	var jobs []batch.Job
	for _, w := range works {
		p, err := w.Program(scale)
		if err != nil {
			return nil, err
		}
		golden, err := GoldenInstret(p)
		if err != nil {
			return nil, fmt.Errorf("%s: iss: %w", w.Name, err)
		}
		for _, b := range bars {
			e, ok := Lookup(b.Engine)
			if !ok {
				return nil, fmt.Errorf("engine %q is not in the registry", b.Engine)
			}
			jobs = append(jobs, CellJob(b.Label, w.Name, e, p, golden))
		}
	}
	return jobs, nil
}
