package main

import (
	"context"
	"errors"
	"testing"

	"rcpn/internal/diffrun"
	"rcpn/internal/workload"
)

// TestSampleIntervalCancelled: an interval job's fast-forward reads the
// job context, so a cancelled one stops it before it reaches the interval.
func TestSampleIntervalCancelled(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := diffrun.Lookup("strongarm")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sampleInterval(ctx, e, p, 50_000, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("sampleInterval on a cancelled context: err %v, want context.Canceled", err)
	}
	m, err := sampleInterval(context.Background(), e, p, 50_000, 1000)
	if err != nil || m.Instret < 1000 {
		t.Fatalf("sampleInterval: %+v, err %v", m, err)
	}
}
