// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time from a seed, checks every output against committed
// expected values, and prints one JSON object as its last line of output.
//
//	perfbench --workload engines --seed 1 --seconds 20 --trace 0
//	perfbench expect            # regenerate expected/ (from the repo root)
//	perfbench steady -runs 10   # spreads and median shifts over two sets
//
// Workloads (README.md has the rationale):
//
//	engines        every engine on the six paper kernels, single goroutine
//	cluster-sweep  closed loop of kernel jobs through a shard coordinator
//	serve-small    open loop of tiny generated-program jobs into a durable
//	               server; a probe load, not in BENCHMARK.json
//
// With --trace 0 the run prints the end-to-end metrics. With --trace 1 it
// runs the workload untraced and then traced for half the time each,
// writes the traced spans under .bench_build/traces, probes the other
// workloads briefly for the layers this one bypasses, and prints the
// per-layer metrics plus the tracing overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd is printed by every workload with --trace 0 (BENCHMARK.json
// lists the same names, units and bounds).
var endToEnd = []metricDef{
	{"sim_mcps", "Mcycles/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"rss_peak_mb", "MB"},
	{"success_frac", "fraction"},
	{"setup_s", "s"},
}

var (
	cycleEngines = []string{"strongarm", "xscale", "genpipe5", "pipe5", "ssim"}
	// benchEngines is every engine the engines workload times; the ISS
	// counts instructions, the others cycles.
	benchEngines = append([]string{"iss"}, cycleEngines...)
	kernels      = []string{"adpcm", "blowfish", "compress", "crc", "g721", "go"}
	ckptEngines  = []string{"strongarm", "xscale", "pipe5", "ssim"}
)

// perLayer is printed by every workload with --trace 1.
func perLayer() []metricDef {
	var defs []metricDef
	for _, e := range benchEngines {
		if e == "iss" {
			defs = append(defs, metricDef{"sim_mips.iss", "Minstr/s"})
		} else {
			defs = append(defs, metricDef{"sim_mcps." + e, "Mcycles/s"})
		}
	}
	for _, e := range benchEngines {
		unit := "ns/cycle"
		if e == "iss" {
			unit = "ns/instr"
		}
		for _, k := range kernels {
			defs = append(defs, metricDef{"step_ns_per_cycle." + e + "." + k, unit})
		}
	}
	for _, e := range benchEngines {
		defs = append(defs, metricDef{"build_ms." + e, "ms"}, metricDef{"allocs_per_kcycle." + e, "count"})
	}
	for _, e := range ckptEngines {
		defs = append(defs,
			metricDef{"ckpt_capture_us." + e, "us"},
			metricDef{"ckpt_encode_us." + e, "us"},
			metricDef{"ckpt_decode_us." + e, "us"},
			metricDef{"ckpt_restore_us." + e, "us"},
			metricDef{"ckpt_bytes." + e, "bytes"})
	}
	return append(defs,
		metricDef{"tpar_exact_over_serial.strongarm", "ratio"},
		// serve + store + batch (serve-small; admission also in cluster-sweep)
		metricDef{"admit_us.fresh.p50", "us"},
		metricDef{"admit_us.fresh.p90", "us"},
		metricDef{"admit_us.dup.p50", "us"},
		metricDef{"store_journal_bytes", "bytes"},
		metricDef{"store_result_files", "count"},
		metricDef{"fetch_us.p50", "us"},
		metricDef{"wait_ms.p50", "ms"},
		metricDef{"wait_ms.p90", "ms"},
		metricDef{"queue_depth_max", "count"},
		metricDef{"dup_frac", "fraction"},
		metricDef{"gen_lag_p90_ms", "ms"},
		// shard + rpc (cluster-sweep)
		metricDef{"queue_wait_ms.p50", "ms"},
		metricDef{"queue_wait_ms.p90", "ms"},
		metricDef{"dispatch_ms.p50", "ms"},
		metricDef{"dispatch_ms.p90", "ms"},
		metricDef{"rpc_overhead_ms.p50", "ms"},
		metricDef{"worker_build_ms.p50", "ms"},
		metricDef{"worker_step_ms.p50", "ms"},
		metricDef{"worker_ckpt_us.p50", "us"},
		metricDef{"ckpts_per_job", "count"},
		metricDef{"job_ms.serial.p50", "ms"},
		metricDef{"job_ms.parallel.p50", "ms"},
		metricDef{"sweep_cpu_mcps", "Mcycles/s"},
		metricDef{"dispatch_errors", "count"},
		metricDef{"retries", "count"},
		metricDef{"trace_overhead_frac", "fraction"},
	)
}

// runConfig is what one workload run gets.
type runConfig struct {
	seed    uint64
	seconds float64
	rec     *recorder // nil: untraced
	work    string    // scratch directory inside the checkout
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	// headline is the figure the tracing overhead is judged on, and
	// higherBetter says which way it points.
	headline     float64
	higherBetter bool
	notes        []string // human-readable lines printed before the result
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, "MISMATCH: "+fmt.Sprintf(format, args...))
}

// probeOrder is the order a traced run probes the other loads in; the
// first to report a metric supplies it, so shared service figures come
// from cluster-sweep.
var probeOrder = []string{"cluster-sweep", "serve-small", "engines"}

var workloads = map[string]func(runConfig) (*outcome, error){
	"engines":       runEngines,
	"serve-small":   runServeSmall,
	"cluster-sweep": runClusterSweep,
}

// setupRepeats is how many times each run sets its workload up; setup_s
// is the median of the process CPU time each set-up took, calibrated by
// refLoop runs just before and after it (hostspeed.go), which keeps one
// slow start-up from moving it.
const setupRepeats = 15

// timeSetups runs setup setupRepeats times, tearing down all but the last
// instance, and returns the median calibrated setup time and the last
// instance, on a quiesced process.
func timeSetups[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		quiesce()
		before := refLoop()
		start := processCPU()
		inst, err := setup()
		if err != nil {
			return last, 0, err
		}
		took := processCPU() - start
		times = append(times, took.Seconds()/slowdown([]time.Duration{before, refLoop()}))
		if i < setupRepeats-1 {
			teardown(inst)
		} else {
			last = inst
		}
	}
	quiesce()
	return last, median(times), nil
}

// quiesce collects the heap, returns its free memory to the OS and flushes
// pending file-system work, so a timed stretch pays neither for garbage nor
// for writeback and discards left by whatever ran before it (an earlier
// run's deleted data directory), and every set-up allocates fresh memory as
// a cold start does. Whether a set-up reused freed heap or faulted in new
// pages otherwise swung its CPU time twofold within one process.
func quiesce() {
	debug.FreeOSMemory()
	syscall.Sync()
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "expect":
			if err := writeExpected(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench expect:", err)
				os.Exit(1)
			}
			return
		case "steady":
			if err := steady(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench steady:", err)
				os.Exit(1)
			}
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "engines, serve-small or cluster-sweep")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured time")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) (*result, error) {
	wl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want engines, serve-small or cluster-sweep)", name)
	}
	if seconds <= 0 {
		return nil, errors.New("--seconds must be > 0")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(work)
		syscall.Sync() // pay for the deletion here, not in the next run
	}()
	cfg := runConfig{seed: seed, seconds: seconds, work: work}

	if !traced {
		o, err := wl(cfg)
		if err != nil {
			return nil, err
		}
		return finish(o, endToEnd, o.e2e)
	}
	cfg.seconds = seconds / 2
	plain, err := wl(cfg)
	if err != nil {
		return nil, err
	}
	cfg.rec = newRecorder()
	quiesce()
	o, err := wl(cfg)
	if err != nil {
		return nil, err
	}
	if plain.failed > 0 {
		o.failed += plain.failed
		o.notes = append(o.notes, plain.notes...)
	}
	o.attempted += plain.attempted
	if plain.headline > 0 && o.headline > 0 {
		if o.higherBetter {
			o.layers["trace_overhead_frac"] = plain.headline/o.headline - 1
		} else {
			o.layers["trace_overhead_frac"] = o.headline/plain.headline - 1
		}
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := cfg.rec.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	o.notes = append(o.notes, fmt.Sprintf("spans written to %s", path))

	// Layers this workload bypasses are read from a short traced probe of
	// the workload that exercises them, so every per-layer metric is a
	// measurement in every traced run.
	for _, other := range probeOrder {
		if other == name {
			continue
		}
		po, err := workloads[other](runConfig{seed: seed, seconds: probeSeconds, rec: newRecorder(), work: work})
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", other, err)
		}
		o.attempted += po.attempted
		o.failed += po.failed
		if po.failed > 0 {
			o.notes = append(o.notes, po.notes...)
		}
		for k, v := range po.layers {
			if _, ok := o.layers[k]; !ok {
				o.layers[k] = v
			}
		}
	}
	return finish(o, perLayer(), o.layers)
}

// probeSeconds is how long a traced run probes each other workload.
const probeSeconds = 2

// finish prints the run's notes and assembles the result line, with
// exactly the metrics defs names.
func finish(o *outcome, defs []metricDef, values map[string]float64) (*result, error) {
	for _, n := range o.notes {
		fmt.Println(n)
	}
	res := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for k := range values {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("internal: metric %q is not in the metric table", k)
		}
	}
	return res, nil
}
