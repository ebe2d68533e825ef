package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" {
		t.Errorf("addr = %q", cfg.addr)
	}
	if cfg.cacheSize != 256 || cfg.plannerCacheSize != 32 {
		t.Errorf("cache sizes = %d/%d", cfg.cacheSize, cfg.plannerCacheSize)
	}
	if cfg.workerBudget != 0 {
		t.Errorf("worker budget = %d", cfg.workerBudget)
	}
	if cfg.requestTimeout != 30*time.Second || cfg.shutdownGrace != 5*time.Second {
		t.Errorf("timeouts = %v/%v", cfg.requestTimeout, cfg.shutdownGrace)
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:9090", "-cache", "8", "-planner-cache", "2",
		"-worker-budget", "3", "-request-timeout", "1s", "-shutdown-grace", "2s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:9090" || cfg.cacheSize != 8 || cfg.plannerCacheSize != 2 ||
		cfg.workerBudget != 3 || cfg.requestTimeout != time.Second || cfg.shutdownGrace != 2*time.Second {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestParseFlagsRejectsInvalid(t *testing.T) {
	for _, args := range [][]string{
		{"-addr", ""},
		{"-cache", "0"},
		{"-cache", "-1"},
		{"-planner-cache", "0"},
		{"-worker-budget", "-2"},
		{"-request-timeout", "-1s"},
		{"-shutdown-grace", "-1s"},
		{"stray-positional"},
		{"-no-such-flag"},
		{"-shards", "0"},
		{"-replicas", "-1"},
		{"-admit-rate", "-1"},
		{"-peers", "no-equals-sign"},
		{"-peers", "a=http://x,a=http://y"},
		{"-peers", "a=http://x", "-shards", "2"},
		{"-tenant-weights", "a=0"},
		{"-tenant-weights", "a=-1"},
		{"-tenant-weights", "a=notanumber"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

// TestParseFlagsShardingOptions: the fleet flags parse into a
// deterministic configuration.
func TestParseFlagsShardingOptions(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-shards", "4", "-replicas", "64", "-warm",
		"-admit-rate", "50", "-tenant-weights", "team-a=3,team-b=1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.shards != 4 || cfg.replicas != 64 || !cfg.warm {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.admitRate != 50 || cfg.tenantWeights["team-a"] != 3 || cfg.tenantWeights["team-b"] != 1 {
		t.Errorf("admission cfg = %g %v", cfg.admitRate, cfg.tenantWeights)
	}

	cfg, err = parseFlags([]string{"-peers", "b=http://b:8081, a=http://a:8081"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.peers["a"] != "http://a:8081" || cfg.peers["b"] != "http://b:8081" {
		t.Errorf("peers = %v", cfg.peers)
	}
	// Peer names are sorted so every process builds the same ring.
	if len(cfg.peerNames) != 2 || cfg.peerNames[0] != "a" || cfg.peerNames[1] != "b" {
		t.Errorf("peerNames = %v", cfg.peerNames)
	}
}

// TestBuildHandlerShapes: the flags select the right deployment shape.
func TestBuildHandlerShapes(t *testing.T) {
	mustBuild := func(args ...string) any {
		t.Helper()
		cfg, err := parseFlags(args)
		if err != nil {
			t.Fatal(err)
		}
		h, start, err := buildHandler(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if start == nil {
			t.Fatal("nil start hook")
		}
		return h
	}
	if _, ok := mustBuild().(*service.Backend); !ok {
		t.Error("default flags should build a lone backend")
	}
	if _, ok := mustBuild("-shards", "4").(*service.Frontend); !ok {
		t.Error("-shards 4 should build a frontend")
	}
	if _, ok := mustBuild("-peers", "a=http://a:1,b=http://b:1").(*service.Frontend); !ok {
		t.Error("-peers should build a frontend")
	}
	// Admission control requires the frontend tier even with one shard.
	if _, ok := mustBuild("-admit-rate", "10").(*service.Frontend); !ok {
		t.Error("-admit-rate should build a frontend")
	}
}

// TestWarmedSingleShardServes: a warm run over the in-process fleet
// completes and serves a Table-1 request as a hit (end-to-end, small).
func TestWarmedFleetServesTable1Hit(t *testing.T) {
	if testing.Short() {
		t.Skip("warmup grid is too expensive for -short")
	}
	cfg, err := parseFlags([]string{"-shards", "2"})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := buildHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := service.WarmupRequests()
	warmed, err := service.Warm(context.Background(), h, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != len(reqs) {
		t.Fatalf("warmed %d/%d", warmed, len(reqs))
	}
	b, _ := json.Marshal(reqs[0])
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(b))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("status %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestRunShutsDownGracefully starts the server on an ephemeral port
// with an already-canceled context: run must drain and return nil.
func TestRunShutsDownGracefully(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-shutdown-grace", "2s"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	logger := log.New(io.Discard, "", 0)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, logger) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down")
	}
}
