package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness check reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs two sets of runs of each workload, -runs runs per set, one
// process per run; the first set takes seeds from -seed on, the second the
// seeds after them. It prints every end-to-end metric's quartiles and
// spread (interquartile range over median) in each set next to its bound,
// and the shift of the median between the sets. It fails when a spread is
// above a third of its bound (setup_s excepted: its spread has no bound)
// or when a median shifts by more than its bound, setup_s included.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload and set")
	firstSeed := fs.Int("seed", 1, "seed of the first run")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	flagged := 0
	for _, w := range bf.Workloads {
		var medians [2]map[string]float64
		for set := range medians {
			values := map[string][]float64{}
			for i := 0; i < *runs; i++ {
				seed := *firstSeed + set**runs + i
				res, err := runChild(self, w.Name, seed, bf.RunSeconds)
				if err != nil {
					return err
				}
				var parts []string
				for _, m := range bf.EndToEnd {
					values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
					parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, res.Metrics[m.Name].Value))
				}
				fmt.Printf("%s seed %d: %s\n", w.Name, seed, strings.Join(parts, " "))
			}
			medians[set] = map[string]float64{}
			fmt.Printf("%-14s %-14s %3s %12s %12s %12s %8s %8s\n", "workload", "metric", "set", "q1", "median", "q3", "spread", "bound")
			for _, m := range bf.EndToEnd {
				q1, med, q3 := quartiles(values[m.Name])
				medians[set][m.Name] = med
				spread := relative(q3-q1, med)
				mark := ""
				if m.Name != "setup_s" && spread > m.Bound/3 {
					mark = "  WIDE"
					flagged++
				}
				fmt.Printf("%-14s %-14s %3d %12.5g %12.5g %12.5g %8.4f %8.3f%s\n", w.Name, m.Name, set+1, q1, med, q3, spread, m.Bound, mark)
			}
		}
		fmt.Printf("%-14s %-14s %12s %12s %8s %8s\n", "workload", "metric", "median 1", "median 2", "shift", "bound")
		for _, m := range bf.EndToEnd {
			a, b := medians[0][m.Name], medians[1][m.Name]
			shift := relative(b-a, a)
			mark := ""
			if shift > m.Bound || -shift > m.Bound {
				mark = "  MOVED"
				flagged++
			}
			fmt.Printf("%-14s %-14s %12.5g %12.5g %8.4f %8.3f%s\n", w.Name, m.Name, a, b, shift, m.Bound, mark)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric spreads above a third of their bound or medians moved by more than it", flagged)
	}
	return nil
}

// relative is d as a share of base (0 when base is 0).
func relative(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return d / base
}

func runChild(self, workload string, seed, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: run not correct", workload, seed)
	}
	return &res, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method) and statistics.median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	if ld%2 == 1 {
		med = d[ld/2]
	} else {
		med = (d[ld/2-1] + d[ld/2]) / 2
	}
	return q(1), med, q(3)
}
