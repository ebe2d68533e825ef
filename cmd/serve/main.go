// Command serve runs the plan service: the repro.Planner facade
// behind a JSON API with response caching, request coalescing, and
// expvar metrics (see internal/service).
//
// Usage:
//
//	serve [-addr :8080] [-cache 256] [-planner-cache 32]
//	      [-worker-budget 0] [-request-timeout 30s] [-shutdown-grace 5s]
//	      [-shards 1] [-peers name=url,...] [-replicas 128]
//	      [-warm] [-admit-rate 0] [-tenant-weights name=w,...]
//	      [-dpverify]
//
// With the default -shards 1 and no -peers, one backend serves
// directly. -shards N runs N in-process backend shards behind a
// consistent-hash routing frontend; -peers routes to already-running
// backend processes instead. -warm precomputes the Table-1 grid into
// the fleet's caches before the listener opens; -admit-rate enables
// per-tenant fair-share admission control at the frontend.
//
// The server stops gracefully on SIGINT/SIGTERM: it stops accepting
// connections, then waits up to -shutdown-grace for in-flight requests
// to drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dp"
	"repro/internal/service"
	"repro/internal/tenant"
)

// config is the parsed, validated command line.
type config struct {
	addr             string
	cacheSize        int
	plannerCacheSize int
	workerBudget     int
	requestTimeout   time.Duration
	shutdownGrace    time.Duration
	dpVerify         bool

	shards        int
	peers         map[string]string // name -> base URL, nil when unset
	peerNames     []string          // sorted, for deterministic ring input
	replicas      int
	warm          bool
	admitRate     float64
	tenantWeights map[string]float64
}

// parsePeers parses "name=url,name=url" into a map.
func parsePeers(s string) (map[string]string, []string, error) {
	if s == "" {
		return nil, nil, nil
	}
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, nil, fmt.Errorf("-peers entry %q is not name=url", part)
		}
		if _, dup := peers[name]; dup {
			return nil, nil, fmt.Errorf("-peers repeats name %q", name)
		}
		peers[name] = url
	}
	names := make([]string, 0, len(peers))
	for n := range peers {
		names = append(names, n)
	}
	sort.Strings(names)
	return peers, names, nil
}

// parseWeights parses "name=w,name=w" into a weight table.
func parseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenant-weights entry %q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenant-weights %q: weight must be a positive number", part)
		}
		weights[name] = w
	}
	return weights, nil
}

// parseFlags parses and validates the command line.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var cfg config
	var peersFlag, weightsFlag string
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.cacheSize, "cache", service.DefaultCacheSize, "response cache capacity per shard, in entries")
	fs.IntVar(&cfg.plannerCacheSize, "planner-cache", service.DefaultPlannerCacheSize, "planner cache capacity per shard, in entries")
	fs.IntVar(&cfg.workerBudget, "worker-budget", 0, "max concurrent plan computations per shard (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.requestTimeout, "request-timeout", 30*time.Second, "per-request computation timeout (0 = none)")
	fs.DurationVar(&cfg.shutdownGrace, "shutdown-grace", 5*time.Second, "graceful-shutdown drain deadline")
	fs.BoolVar(&cfg.dpVerify, "dpverify", false, "cross-check every DP row computed by the sub-quadratic solvers against the reference scan (debug; slow)")
	fs.IntVar(&cfg.shards, "shards", 1, "in-process backend shard count behind the routing frontend")
	fs.StringVar(&peersFlag, "peers", "", "comma-separated name=url backend peers to route to instead of in-process shards")
	fs.IntVar(&cfg.replicas, "replicas", 0, "virtual nodes per shard on the routing ring (0 = default)")
	fs.BoolVar(&cfg.warm, "warm", false, "precompute the Table-1 grid (nine laws x three cost models) into the caches before serving")
	fs.Float64Var(&cfg.admitRate, "admit-rate", 0, "total admission rate across tenants, requests/sec (0 = no admission control)")
	fs.StringVar(&weightsFlag, "tenant-weights", "", "comma-separated name=weight fair-share weights (unlisted tenants share a default bucket)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.addr == "" {
		return config{}, errors.New("-addr must not be empty")
	}
	if cfg.cacheSize < 1 {
		return config{}, fmt.Errorf("-cache must be at least 1, got %d", cfg.cacheSize)
	}
	if cfg.plannerCacheSize < 1 {
		return config{}, fmt.Errorf("-planner-cache must be at least 1, got %d", cfg.plannerCacheSize)
	}
	if cfg.workerBudget < 0 {
		return config{}, fmt.Errorf("-worker-budget must not be negative, got %d", cfg.workerBudget)
	}
	if cfg.requestTimeout < 0 {
		return config{}, fmt.Errorf("-request-timeout must not be negative, got %v", cfg.requestTimeout)
	}
	if cfg.shutdownGrace < 0 {
		return config{}, fmt.Errorf("-shutdown-grace must not be negative, got %v", cfg.shutdownGrace)
	}
	if cfg.shards < 1 {
		return config{}, fmt.Errorf("-shards must be at least 1, got %d", cfg.shards)
	}
	if cfg.replicas < 0 {
		return config{}, fmt.Errorf("-replicas must not be negative, got %d", cfg.replicas)
	}
	if cfg.admitRate < 0 {
		return config{}, fmt.Errorf("-admit-rate must not be negative, got %g", cfg.admitRate)
	}
	var err error
	cfg.peers, cfg.peerNames, err = parsePeers(peersFlag)
	if err != nil {
		return config{}, err
	}
	if cfg.peers != nil && cfg.shards != 1 {
		return config{}, errors.New("-peers and -shards are mutually exclusive")
	}
	cfg.tenantWeights, err = parseWeights(weightsFlag)
	if err != nil {
		return config{}, err
	}
	return cfg, nil
}

// backendConfig is the per-shard service configuration.
func (cfg config) backendConfig() service.Config {
	return service.Config{
		Cache: service.CacheConfig{
			Responses: cfg.cacheSize,
			Planners:  cfg.plannerCacheSize,
		},
		Limits: service.LimitsConfig{
			RequestTimeout: cfg.requestTimeout,
			WorkerBudget:   cfg.workerBudget,
		},
	}
}

// buildHandler assembles the deployment the flags describe: a lone
// backend, a frontend over N in-process shards, or a frontend over
// remote peers. The returned start hook launches the health prober
// when there is a frontend.
func buildHandler(cfg config) (http.Handler, func(ctx context.Context), error) {
	if cfg.peers == nil && cfg.shards == 1 && cfg.admitRate == 0 {
		return service.New(cfg.backendConfig()), func(context.Context) {}, nil
	}
	var refs []service.BackendRef
	if cfg.peers != nil {
		for _, name := range cfg.peerNames {
			refs = append(refs, service.BackendRef{Name: name, URL: cfg.peers[name]})
		}
	} else {
		for i := 0; i < cfg.shards; i++ {
			refs = append(refs, service.BackendRef{
				Name:    "shard-" + strconv.Itoa(i),
				Handler: service.New(cfg.backendConfig()),
			})
		}
	}
	fe, err := service.NewFrontend(service.FrontendConfig{
		Backends: refs,
		Shard:    service.ShardConfig{Replicas: cfg.replicas},
		Admission: tenant.Config{
			Rate:    cfg.admitRate,
			Weights: cfg.tenantWeights,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return fe, func(ctx context.Context) { go fe.ProbeLoop(ctx) }, nil
}

// run serves until the listener fails or ctx is canceled, then drains
// gracefully.
func run(ctx context.Context, cfg config, logger *log.Logger) error {
	if cfg.dpVerify {
		dp.SetVerifyRows(true)
		logger.Printf("dpverify: per-row DP cross-checking enabled")
	}
	handler, start, err := buildHandler(cfg)
	if err != nil {
		return err
	}
	if cfg.warm {
		reqs := service.WarmupRequests()
		warmed, err := service.Warm(ctx, handler, reqs)
		if err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
		logger.Printf("warmup: %d/%d Table-1 grid entries cached", warmed, len(reqs))
	}
	start(ctx)
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("plan server listening on %s", cfg.addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		logger.Printf("shutting down (draining for up to %v)", cfg.shutdownGrace)
		sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger := log.New(os.Stderr, "serve: ", log.LstdFlags)
	if err := run(ctx, cfg, logger); err != nil {
		logger.Fatal(err)
	}
}
