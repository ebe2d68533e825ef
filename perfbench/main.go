// Command perfbench is the repository benchmark. It drives the two
// end-to-end paths of the system in one process and prints one JSON
// result line:
//
//   - the plan path: client → service.Frontend (shard ring, tenant
//     admission) → service.Backend (response LRU, singleflight) →
//     repro.Planner → strategy kernels (workloads plan-hot, plan-cold);
//   - the fleet path: cluster.RunStream → job generation → event core and
//     backfill → recorders → StatsAccumulator (workloads fleet-easy,
//     fleet-conservative).
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate, span-recording run. See
// README.md in this directory for the workloads, the metrics, and which
// layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// now is the benchmark's clock; every timing read goes through it.
var now = time.Now

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measurements.
type metrics map[string]metric

// set records one metric. Values that are not finite are recorded as 0
// so the result line stays valid JSON.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// report is the result line printed last on standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workload is one benchmark scenario after set-up.
type workload interface {
	// measure runs the timed loop for about d and returns the end-to-end
	// metrics other than setup_s and memory_mb.
	measure(d time.Duration) (report, error)
	// trace runs an untraced pass and a span-recording pass over the
	// same operations and returns the per-layer metrics.
	trace(d time.Duration, setupS float64) (report, error)
}

// scenario is a workload's set-up and how often it is repeated;
// setup_s is the median of the repeats.
type scenario struct {
	setup func(seed uint64, d time.Duration) (workload, error)
	reps  int
}

var scenarios = map[string]scenario{
	"plan-hot":   {setup: setupPlanHot, reps: 5},
	"plan-cold":  {setup: setupPlanCold, reps: 5},
	"fleet-easy": {setup: setupFleetEasy, reps: 21},
	// fleet-conservative is runnable but not in BENCHMARK.json: its
	// figures vary too much with the seed (see README.md).
	"fleet-conservative": {setup: setupFleetConservative, reps: 21},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints the result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "plan-hot, plan-cold, fleet-easy or fleet-conservative")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed part of the run, in seconds")
	traced := fs.Int("trace", 0, "1 runs the span-recording run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scenarios[*name]
	if !ok || fs.NArg() > 0 || !(*seconds > 0) || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload plan-hot|plan-cold|fleet-easy|fleet-conservative, --seconds > 0, --trace 0|1")
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	rep, err := execute(sc, *seed, d, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute sets the workload up sc.reps times, keeps the last instance,
// forces a GC, then runs the timed or the traced part.
func execute(sc scenario, seed uint64, d time.Duration, traced bool) (report, error) {
	setups := make([]float64, sc.reps)
	var w workload
	for i := range setups {
		w = nil
		runtime.GC()
		t0 := now()
		var err error
		w, err = sc.setup(seed, d)
		if err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups[i] = now().Sub(t0).Seconds()
	}
	setupS := median(setups)
	runtime.GC()
	if traced {
		return w.trace(d, setupS)
	}
	stop := sampleMemory()
	rep, err := w.measure(d)
	memMB := stop()
	if err != nil {
		return report{}, err
	}
	rep.Metrics.set("setup_s", setupS, "s")
	rep.Metrics.set("memory_mb", memMB, "MB")
	return rep, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memPeriod is how often sampleMemory samples.
const memPeriod = 50 * time.Millisecond

// heldMB is the memory the Go runtime holds from the OS, in MiB:
// everything it has mapped minus the heap pages it has returned.
func heldMB() float64 {
	s := []rtmetrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// sampleMemory samples heldMB every memPeriod until the returned stop
// is called, which waits for the sampler to end and returns the median
// of the samples. The median, not the peak: the peak of a run is the
// highest of hundreds of GC cycles and moves with when the host lets
// the GC run (plan-hot's peak resident set spread 0.16 over five
// seeds), while the median is the footprint the run holds.
func sampleMemory() (stop func() float64) {
	quit := make(chan struct{})
	done := make(chan []float64)
	go func() {
		samples := []float64{heldMB()}
		tick := time.NewTicker(memPeriod)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- append(samples, heldMB())
				return
			case <-tick.C:
				samples = append(samples, heldMB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		return median(<-done)
	}
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median sorts values in place and returns their median.
func median(values []float64) float64 {
	sort.Float64s(values)
	return quantile(values, 0.5)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mix64 is the SplitMix64 finalizer; it derives independent sub-seeds
// from the run seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// layerUnits lists every per-layer metric with its unit. A traced run
// prints all of them; a layer a workload does not exercise reads 0.
var layerUnits = map[string]string{
	"client.self_us_p50":           "us",
	"client.self_us_p99":           "us",
	"frontend.self_us_p50":         "us",
	"frontend.self_us_p99":         "us",
	"frontend.failovers":           "count",
	"frontend.rejected":            "count",
	"shard.max_over_mean":          "ratio",
	"backend.requests":             "count",
	"backend.hits":                 "count",
	"backend.misses":               "count",
	"backend.coalesced":            "count",
	"backend.hit_us_p50":           "us",
	"backend.hit_us_p99":           "us",
	"backend.miss_us_p50":          "us",
	"backend.miss_us_p99":          "us",
	"backend.miss_overhead_us_p50": "us",
	"planner.bruteforce_us_p50":    "us",
	"planner.dp_us_p50":            "us",
	"planner.montecarlo_us_p50":    "us",
	"planner.share_of_miss_pct":    "%",
	"planner.known_failures":       "count",
	"generate.ns_per_job":          "ns",
	"recorder.ns_per_event":        "ns",
	"recorder.events_per_batch":    "count",
	"stats.ns_per_job":             "ns",
	"simulate.self_ns_per_job":     "ns",
	"simulate.events_per_job":      "count",
	"sim.utilization":              "ratio",
	"sim.mean_wait":                "s",
	"setup.policy_ms":              "ms",
	"runtime.allocs_per_op":        "count",
	"runtime.alloc_kb_per_op":      "KiB",
	"runtime.gc_per_kop":           "count",
	"runtime.allocs_per_job":       "count",
	"runtime.gc_per_mjob":          "count",
	"trace.overhead_pct":           "%",
	"trace.unaccounted_pct":        "%",
}

// layerReport returns a traced-run report with every per-layer metric
// present, set to 0 until the workload fills it in.
func layerReport() report {
	rep := report{Correct: true, Metrics: metrics{}}
	for name, unit := range layerUnits {
		rep.Metrics[name] = metric{Unit: unit}
	}
	return rep
}

// layer sets one per-layer metric under its registered unit.
func (m metrics) layer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unregistered layer metric " + name)
	}
	m.set(name, v, unit)
}

// memDelta is the runtime.MemStats difference across a pass.
type memDelta struct {
	mallocs, bytes, gcs float64
}

// memSnapshot returns a function that yields the allocation and GC
// counts since the snapshot was taken.
func memSnapshot() func() memDelta {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() memDelta {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		return memDelta{
			mallocs: float64(after.Mallocs - before.Mallocs),
			bytes:   float64(after.TotalAlloc - before.TotalAlloc),
			gcs:     float64(after.NumGC - before.NumGC),
		}
	}
}
