package serve

import (
	"context"
	"runtime"
	"testing"
)

// jobBytesBound bounds the mean heap bytes one ExecuteSpec allocates for
// each cluster-sweep job kind, about 1.5 times what it measures (39–225 KB
// a job; 1.4 times for pipe5, whose job is mostly its assembly). An
// assembler that splits the source into a line slice, allocates operand
// lists per line and grows its image a byte at a time (57–260 KB a job)
// fails the pipe5 rows. Memory that allocates whole 64 KiB pages for each
// engine's text and stack and for each checkpoint a time-parallel job
// restores (124–395 KB a job) fails the pipe5, ssim and time-parallel rows.
var jobBytesBound = map[string]uint64{
	"strongarm/plain": 250 << 10, "strongarm/ckpt": 250 << 10, "strongarm/par": 300 << 10,
	"xscale/plain": 280 << 10, "xscale/ckpt": 280 << 10, "xscale/par": 330 << 10,
	"pipe5/plain": 55 << 10, "pipe5/ckpt": 55 << 10, "pipe5/par": 105 << 10,
	"ssim/plain": 110 << 10, "ssim/ckpt": 110 << 10, "ssim/par": 165 << 10,
}

// sweepSpec is the spec of one cluster-sweep job (perfbench/cluster.go):
// the kernel at its sweep scale, a checkpoint every 25,000 instructions
// in ckpt mode, and two exact time-parallel segments in par mode.
func sweepSpec(t *testing.T, sim, kernel, mode string) *JobSpec {
	t.Helper()
	spec := &JobSpec{Simulator: sim, Kernel: kernel, Scale: 1, MaxCycles: 1 << 30}
	if kernel == "blowfish" || kernel == "crc" {
		spec.Scale = 2
	}
	switch mode {
	case "ckpt":
		spec.CheckpointInterval = 25_000
	case "par":
		spec.Parallelism = 2
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestJobFootprint is the per-job footprint gate: the mean bytes allocated
// by one ExecuteSpec — the path local and shard-worker jobs share — for
// each cluster-sweep engine in plain, checkpointed and time-parallel mode,
// over the six kernels at their sweep scales. Allocated bytes depend on the
// program and the toolchain, not the host. The race detector allocates on
// its own behalf, so race builds skip it.
func TestJobFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	kernels := []string{"adpcm", "blowfish", "compress", "crc", "g721", "go"}
	// One job first, so one-time set-up is not charged to the first kind.
	if _, _, err := ExecuteSpec(context.Background(), sweepSpec(t, "pipe5", "crc", "plain"), ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, sim := range []string{"strongarm", "xscale", "pipe5", "ssim"} {
		for _, mode := range []string{"plain", "ckpt", "par"} {
			var total uint64
			for _, k := range kernels {
				spec := sweepSpec(t, sim, k, mode)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, _, err := ExecuteSpec(context.Background(), spec, ExecOptions{})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", sim, k, mode, err)
				}
				total += after.TotalAlloc - before.TotalAlloc
			}
			kind := sim + "/" + mode
			mean := total / uint64(len(kernels))
			t.Logf("%s: %d bytes per job", kind, mean)
			if mean > jobBytesBound[kind] {
				t.Errorf("%s: a job allocates %d bytes, bound %d", kind, mean, jobBytesBound[kind])
			}
		}
	}
}
