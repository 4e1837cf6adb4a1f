// Xscale runs the paper's six benchmark kernels on the RCPN-generated
// XScale simulator and prints the per-benchmark report a user of the
// framework would read: cycles, CPI, cache hit ratios, branch-prediction
// accuracy and simulation speed.
//
// Run with: go run ./examples/xscale [-scale N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rcpn/internal/machine"
	"rcpn/internal/workload"
)

func main() {
	scale := flag.Int("scale", 1, "workload scale factor")
	flag.Parse()

	fmt.Println("XScale (PXA250-class, Fig. 9 pipeline) — RCPN-generated simulator")
	fmt.Printf("%-10s %12s %10s %7s %8s %8s %8s %10s\n",
		"benchmark", "instructions", "cycles", "CPI", "I$ hit", "D$ hit", "bpred", "Mcycles/s")

	for _, w := range workload.All() {
		p, err := w.Program(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m, err := machine.Generate(p, machine.XScaleSpec(), machine.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		start := time.Now()
		if err := m.Run(0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		fmt.Printf("%-10s %12d %10d %7.2f %7.1f%% %7.1f%% %7.1f%% %10.2f\n",
			w.Name, m.Instret, m.Net.CycleCount(), m.CPI(),
			100*m.ICache.Stats.HitRatio(), 100*m.DCache.Stats.HitRatio(),
			100*m.Pred.Stats().Accuracy(),
			float64(m.Net.CycleCount())/wall.Seconds()/1e6)
	}
}
