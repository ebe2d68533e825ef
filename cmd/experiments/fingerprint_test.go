package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/service/api"
)

// fingerprintGOARCH is the architecture the golden file was recorded
// on. Float results are only promised bit-identical on one
// architecture (fused multiply-add and libm differ elsewhere), so the
// gate runs there only.
const fingerprintGOARCH = "amd64"

// fingerprintGolden holds one "name sha256" line per component.
const fingerprintGolden = "testdata/behaviour.golden"

// TestBehaviourFingerprint pins the observable behaviour of the whole
// repository to a committed golden file: every CSV of the experiment
// driver, the service's response bodies over the Table-1 warmup grid,
// fleet-simulator traces and summaries, and the scheduler-derived
// Fig.-2 wait law. Any refactor must leave every hash unchanged; a
// mismatch names the component and prints the hash it now produces.
func TestBehaviourFingerprint(t *testing.T) {
	if runtime.GOARCH != fingerprintGOARCH {
		t.Skipf("behaviour fingerprint was recorded on %s; skipping on %s", fingerprintGOARCH, runtime.GOARCH)
	}
	want := readFingerprint(t)
	got := map[string]string{}
	add := func(name string, data []byte) {
		if _, dup := got[name]; dup {
			t.Fatalf("duplicate fingerprint component %q", name)
		}
		sum := sha256.Sum256(data)
		got[name] = hex.EncodeToString(sum[:])
	}
	fingerprintCSVs(t, add)
	fingerprintService(t, add)
	fingerprintCluster(t, add)
	fingerprintWaitLaw(t, add)

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: not in %s; got %s", name, fingerprintGolden, got[name])
		case w != got[name]:
			t.Errorf("%s: behaviour changed; got %s, want %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: listed in %s but no longer produced", name, fingerprintGolden)
		}
	}
}

// readFingerprint parses the golden file.
func readFingerprint(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(fingerprintGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", fingerprintGolden, sc.Text())
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// fingerprintCSVs hashes every CSV runAll writes at smallCfg.
func fingerprintCSVs(t *testing.T, add func(string, []byte)) {
	dir := t.TempDir()
	if err := runAll(smallCfg(), "all", dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("runAll wrote no CSV files")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		add("csv/"+filepath.Base(f), b)
	}
}

// fingerprintService hashes the response bodies (with status codes) of
// one default backend over the Table-1 warmup grid: every strategy,
// Monte-Carlo scoring, the attempt-capped DP, and /v1/simulate.
func fingerprintService(t *testing.T, add func(string, []byte)) {
	hc := &http.Client{Transport: client.HandlerTransport(service.New(service.Config{}))}
	post := func(buf *bytes.Buffer, path string, req any) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Post("http://fingerprint"+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(buf, "%d %d\n", resp.StatusCode, len(b))
		buf.Write(b)
	}
	grid := service.WarmupRequests()
	if len(grid) != 27 {
		t.Fatalf("warmup grid has %d requests, want 27", len(grid))
	}
	for _, strat := range repro.Strategies() {
		var buf bytes.Buffer
		for _, req := range grid {
			req.Strategy = strat
			post(&buf, api.PathPlan, req)
		}
		add("plan/"+strat, buf.Bytes())
	}
	var mc bytes.Buffer
	for _, req := range grid {
		req.Options.MonteCarlo = true
		post(&mc, api.PathPlan, req)
	}
	add("plan-monte-carlo", mc.Bytes())
	for _, strat := range []string{repro.StrategyEqualTime, repro.StrategyEqualProb} {
		var buf bytes.Buffer
		for _, req := range grid {
			req.Strategy = strat
			req.Options.MaxAttempts = 3
			post(&buf, api.PathPlan, req)
		}
		add("plan-max-attempts-3/"+strat, buf.Bytes())
	}
	var sim bytes.Buffer
	for _, req := range grid {
		post(&sim, api.PathSimulate, api.SimulateRequest{PlanRequest: req})
	}
	add("simulate", sim.Bytes())
}

// fingerprintCluster hashes the trace and every summary field of a
// fixed fleet scenario set: each Table-1 law under every backfill
// policy, with and without preemption (conservative backfilling
// rejects preemption), on heterogeneous nodes with one finite tenant
// budget.
func fingerprintCluster(t *testing.T, add func(string, []byte)) {
	laws := dist.Table1()
	names := dist.Table1Names()
	policies := []cluster.BackfillPolicy{cluster.BackfillNone, cluster.BackfillEASY, cluster.BackfillConservative}
	for li, law := range laws {
		policy := quantilePolicy(law, 0.5, 0.8, 0.95, 0.999)
		for _, back := range policies {
			for _, preempt := range []float64{0, 3} {
				if preempt > 0 && back == cluster.BackfillConservative {
					continue
				}
				spec := cluster.WorkloadSpec{
					Seed:        uint64(100*li) + uint64(back),
					Jobs:        600,
					ArrivalRate: 0.7 * 6 / (2 * law.Mean()),
					Classes: []cluster.JobClass{
						{Name: "a", Runtime: law, Weight: 2, MinWidth: 1, MaxWidth: 3, Tenant: 0, Policy: policy},
						{Name: "b", Runtime: law, Weight: 1, MinWidth: 1, MaxWidth: 3, Tenant: 1, Policy: policy},
					},
				}
				cfg := cluster.Config{
					Nodes: []int{1, 2, 3},
					Tenants: []cluster.Tenant{
						{Name: "a", Budget: math.Inf(1)},
						{Name: "b", Budget: 150 * law.Mean(), Quota: 3},
					},
					Backfill:     back,
					Model:        core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.1},
					PreemptAfter: preempt * law.Mean(),
				}
				out, err := cluster.Run(spec, cfg, 1, true)
				if err != nil {
					t.Fatalf("%s/%s/preempt=%v: %v", names[li], back, preempt > 0, err)
				}
				var buf bytes.Buffer
				fmt.Fprintf(&buf, "trace %016x %d\n", out.TraceHash, out.TraceEvents)
				writeFields(&buf, reflect.ValueOf(out.Stats))
				add(fmt.Sprintf("cluster/%s/%s/preempt=%v", names[li], back, preempt > 0), buf.Bytes())
			}
		}
	}
}

// quantilePolicy is a strictly increasing reservation sequence read
// off a law's quantiles.
func quantilePolicy(d dist.Distribution, ps ...float64) []float64 {
	var out []float64
	last := 0.0
	for _, p := range ps {
		if q := d.Quantile(p); q > last && !math.IsInf(q, 0) {
			out = append(out, q)
			last = q
		}
	}
	return out
}

// writeFields writes every field of a struct — descending into
// embedded structs — with floats as their IEEE-754 bits.
func writeFields(buf *bytes.Buffer, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			writeFields(buf, f)
		case reflect.Float64:
			fmt.Fprintf(buf, "%s %016x\n", name, math.Float64bits(f.Float()))
		case reflect.Int:
			fmt.Fprintf(buf, "%s %d\n", name, f.Int())
		default:
			panic("writeFields: unhandled kind " + f.Kind().String())
		}
	}
}

// fingerprintWaitLaw hashes the scheduler-derived Fig.-2 wait law —
// the fitted model, the bucketed profile and the run summary — on a
// 16- and a 64-node cluster.
func fingerprintWaitLaw(t *testing.T, add func(string, []byte)) {
	const reqMin, reqMax, useFrac = 600.0, 72000.0, 0.7
	for _, nodes := range []int{16, 64} {
		maxJobNodes := nodes * 3 / 4
		meanReq := (reqMax - reqMin) / math.Log(reqMax/reqMin)
		meanRun := meanReq * (useFrac + 1) / 2
		meanNodes := float64(1+maxJobNodes) / 2
		wl := cluster.Fig2Workload{
			Jobs: 3000, MaxJobNodes: maxJobNodes,
			ArrivalRate:  0.9 * float64(nodes) / (meanRun * meanNodes),
			RequestedMin: reqMin, RequestedMax: reqMax, UseFraction: useFrac,
			Seed: 42,
		}
		model, prof, s, err := cluster.DeriveWaitTimeModel(nodes, wl, 20)
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		var buf bytes.Buffer
		writeWaitLaw(&buf, model, prof)
		fmt.Fprintf(&buf, "jobs %d rejected %d backfilled %d killed %d\n", s.Jobs, s.Rejected, s.Backfilled, s.Killed)
		fmt.Fprintf(&buf, "wait %016x %016x util %016x\n",
			math.Float64bits(s.MeanWait), math.Float64bits(s.MaxWait), math.Float64bits(s.Utilization))
		add(fmt.Sprintf("waitlaw/nodes=%d", nodes), buf.Bytes())
	}
}

// writeWaitLaw writes a fitted wait law and its profile as float bits.
func writeWaitLaw(buf *bytes.Buffer, m trace.WaitTimeModel, prof []trace.WaitGroup) {
	fmt.Fprintf(buf, "model %016x %016x\n", math.Float64bits(m.Alpha), math.Float64bits(m.Gamma))
	for _, g := range prof {
		fmt.Fprintf(buf, "group %016x %016x %d\n", math.Float64bits(g.RequestedSec), math.Float64bits(g.AvgWaitSec), g.Jobs)
	}
}
