package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rcpn/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata figure pins")

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	return <-done
}

// TestFig11Golden pins the Figure 11 CPI table at scale 1: simulated
// cycles and instructions are deterministic, so the printed table is too.
// Regenerate with
//
//	go test ./cmd/experiments -run TestFig11Golden -update-golden
//
// only for intended timing changes.
func TestFig11Golden(t *testing.T) {
	path := filepath.Join("testdata", "fig11_scale1.txt")
	got := captureStdout(t, func() { fig11(context.Background(), &stats.Set{}, 1) })
	if *updateGolden {
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
		t.Errorf("Figure 11 output differs from %s:\n got\n%s\n want\n%s", path, got, want)
	}
}
