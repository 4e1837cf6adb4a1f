package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rcpn/internal/batch"
	"rcpn/internal/diffrun"
	"rcpn/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata report pins")

// TestReportGolden pins the default (wall-free) JSON report of both modes
// at scale 1 over every simulator and the paper's six workloads, and checks
// the package doc's claim that the report bytes do not depend on the pool
// size. Regenerate with
//
//	go test ./cmd/rcpnbatch -run TestReportGolden -update-golden
//
// only for intended timing changes.
func TestReportGolden(t *testing.T) {
	modes := []struct {
		name, file string
		run        func(opt batch.Options) *batch.Report
	}{
		{"matrix", "matrix_scale1.json", func(opt batch.Options) *batch.Report {
			jobs, err := diffrun.MatrixJobs(context.Background(), diffrun.Fig10(), workload.All(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return batch.Run(jobs, opt)
		}},
		{"sample", "sample_scale1_k3.json", func(opt batch.Options) *batch.Report {
			return runSample(context.Background(), diffrun.Fig10(), workload.All(), 1, 3, 20_000, opt)
		}},
	}
	for _, m := range modes {
		path := filepath.Join("testdata", m.file)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/j%d", m.name, workers), func(t *testing.T) {
				got, err := m.run(batch.Options{Workers: workers}).JSON(false)
				if err != nil {
					t.Fatal(err)
				}
				if *updateGolden && workers == 1 {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden %s (run with -update-golden to create): %v", path, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("report differs from %s at -j %d:\n got  %s\n want %s", path, workers, got, want)
				}
			})
		}
	}
}
