// Command loadgen drives a plan-service deployment with a synthetic
// workload and reports tail latency, cache effectiveness, and shard
// balance. By default it builds an in-process fleet (N backends behind
// the sharding frontend), so a single invocation measures the full
// routing path with no network noise; -target points it at a live
// server instead.
//
// The request stream is deterministic: a seeded Zipf draw over a
// universe of distinct distribution specs (or the Table-1 grid with
// -mix table1), so repeated runs issue the same specs in the same
// order and cache-miss counts are reproducible.
//
// -smoke runs a fixed 1-2 s suite and fails unless its deterministic
// invariants hold. The repository benchmark (perfbench) measures the
// plan path end to end; loadgen's report is for humans.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// run parses flags, executes the scenario(s), and writes the report
// to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		target   = fs.String("target", "", "base URL of a live service; empty runs an in-process fleet")
		shards   = fs.Int("shards", 4, "in-process backend shards behind the frontend")
		requests = fs.Int("requests", 2000, "requests to issue per scenario")
		workers  = fs.Int("workers", 8, "concurrent in-flight requests")
		mix      = fs.String("mix", "zipf", "spec mix: zipf or table1")
		universe = fs.Int("universe", 100, "zipf mix: number of distinct specs")
		zipfS    = fs.Float64("zipf-s", 1.1, "zipf exponent (>1 skews toward the head)")
		arrivals = fs.String("arrivals", "closed", "arrival process: closed, poisson, or bursty")
		rate     = fs.Float64("rate", 2000, "poisson/bursty arrivals: long-run requests/sec")
		burst    = fs.Int("burst", 32, "bursty arrivals: requests per burst")
		tenants  = fs.String("tenants", "", "comma-separated tenant names cycled across requests")
		seed     = fs.Uint64("seed", 1, "seed for the spec and arrival streams")
		warm     = fs.Bool("warm", false, "pre-warm the Table-1 grid before measuring")
		smoke    = fs.Bool("smoke", false, "run the fixed 1-2s CI smoke suite and verify its invariants")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch {
	case *requests <= 0, *workers <= 0, *universe <= 0, *shards <= 0:
		return fmt.Errorf("-requests, -workers, -universe, and -shards must be positive")
	case *zipfS <= 0, *rate <= 0, *burst <= 0:
		return fmt.Errorf("-zipf-s, -rate, and -burst must be positive")
	}

	var reports []report
	if *smoke {
		var err error
		reports, err = runSmoke(ctx)
		if err != nil {
			return err
		}
	} else {
		cfg := engineConfig{
			target:   *target,
			shards:   *shards,
			requests: *requests,
			workers:  *workers,
			mix:      *mix,
			universe: *universe,
			zipfS:    *zipfS,
			arrivals: *arrivals,
			rate:     *rate,
			burst:    *burst,
			seed:     *seed,
			warm:     *warm,
		}
		if *tenants != "" {
			cfg.tenants = strings.Split(*tenants, ",")
		}
		if *warm {
			cfg.label = cfg.mix + "_warm"
		}
		rep, err := runEngine(ctx, cfg)
		if err != nil {
			return err
		}
		reports = []report{rep}
	}

	for _, rep := range reports {
		printReport(stdout, rep)
	}
	return nil
}

// runSmoke executes the fixed CI scenarios: small enough to finish in
// a second or two, broad enough to exercise routing, warmup, and
// admission. It fails if the deterministic invariants do not hold, so
// check.sh catches routing or cache regressions without a baseline.
func runSmoke(ctx context.Context) ([]report, error) {
	zipf, err := runEngine(ctx, engineConfig{
		label: "smoke_zipf", shards: 2, requests: 400, workers: 4,
		mix: "zipf", universe: 40, seed: 1,
	})
	if err != nil {
		return nil, err
	}
	if zipf.Errors > 0 {
		return nil, fmt.Errorf("smoke zipf: %d errors", zipf.Errors)
	}
	if zipf.Misses != zipf.UniqueSpecs {
		return nil, fmt.Errorf("smoke zipf: %d misses for %d unique specs (routing must pin each spec to one shard)",
			zipf.Misses, zipf.UniqueSpecs)
	}
	warm, err := runEngine(ctx, engineConfig{
		label: "smoke_table1_warm", shards: 2, requests: 100, workers: 4,
		mix: "table1", warm: true, seed: 1,
	})
	if err != nil {
		return nil, err
	}
	if warm.Errors > 0 {
		return nil, fmt.Errorf("smoke warm: %d errors", warm.Errors)
	}
	if warm.Misses != 0 {
		return nil, fmt.Errorf("smoke warm: %d misses after full Table-1 warmup, want 0", warm.Misses)
	}
	// Repeated warm bodies must take the hit path's memos; a fast path
	// that silently falls back to the full decode still serves hits.
	if warm.BodyMemoHits == 0 || warm.RouteMemoHits == 0 {
		return nil, fmt.Errorf("smoke warm: %d body-memo hits on the backends, %d route-memo hits on the frontend; want both > 0",
			warm.BodyMemoHits, warm.RouteMemoHits)
	}
	return []report{zipf, warm}, nil
}

// printReport renders one scenario's outcome for humans.
func printReport(w io.Writer, rep report) {
	fmt.Fprintf(w, "scenario %s: %d requests in %.2fs\n",
		rep.Label, rep.Requests, rep.ElapsedNS/1e9)
	fmt.Fprintf(w, "  latency  p50 %s  p99 %s  p999 %s\n",
		time.Duration(rep.P50NS), time.Duration(rep.P99NS), time.Duration(rep.P999NS))
	fmt.Fprintf(w, "  cache    %d hits, %d misses, %d coalesced (%d unique specs, %.1f%% served from cache)\n",
		rep.Hits, rep.Misses, rep.Coalesced, rep.UniqueSpecs, 100*rep.hitRatio())
	if rep.Rejected > 0 || rep.Errors > 0 {
		fmt.Fprintf(w, "  admission %d rejected (429), %d errors\n", rep.Rejected, rep.Errors)
	}
	if len(rep.PerShard) > 0 {
		fmt.Fprintf(w, "  shards   %v, imbalance %.2fx\n", rep.PerShard, rep.Imbalance)
	}
	if rep.BodyMemoHits > 0 || rep.RouteMemoHits > 0 {
		fmt.Fprintf(w, "  memos    %d body-memo hits, %d route-memo hits\n", rep.BodyMemoHits, rep.RouteMemoHits)
	}
}
