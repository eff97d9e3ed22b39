package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The benchmark's self-tests run every workload at RMAT scale 10 for a
// second or two, against a tcd built from the same tree.

var testTCD string

func TestMain(m *testing.M) {
	// The oneshot-tcp set-up re-executes the running binary with
	// -cold-oneshot; under go test that binary is this one.
	if len(os.Args) > 1 && os.Args[1] == "-cold-oneshot" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	testTCD = filepath.Join(dir, "tcd")
	if out, err := exec.Command("go", "build", "-o", testTCD, "tc2d/cmd/tcd").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("build tcd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func tinyEnv(t *testing.T) *env {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig
	cfg.Scale, cfg.OneshotScale = 10, 10
	cfg.SetupBoots = 1
	return &env{cfg: cfg, seed: 7, window: 1500 * time.Millisecond, tcdBin: testTCD,
		workdir: t.TempDir(), self: self}
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// Every metric BENCHMARK.json names is emitted, with its unit, by every
// workload's end-to-end run and by the traced run.
func TestEveryNamedMetricEmitted(t *testing.T) {
	sp := testSpec(t)
	for _, w := range sp.Workloads {
		fn, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q the program does not have", w.Name)
		}
		e := tinyEnv(t)
		o, err := fn(e)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res, err := o.result(sp, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct {
			t.Fatalf("%s: run not correct: %v", w.Name, o.problems)
		}
	}
	e := tinyEnv(t)
	e.trace = true
	o, err := runTraced(e, "serve-write")
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.result(sp, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run not correct: %v", o.problems)
	}
	for _, v := range o.layers {
		if v.Moves == "" {
			t.Errorf("per-layer row %s names no end-to-end metric it moves", v.Name)
		}
	}
}

// A wrong expected count fails the run on every workload.
func TestGateRejectsWrongCount(t *testing.T) {
	sp := testSpec(t)
	for name, fn := range workloads {
		e := tinyEnv(t)
		e.wrongOracle = 1
		o, err := fn(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := o.result(sp, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a perturbed oracle passed the gate (failed=%d)", name, res.Failed)
		}
	}
}

// Open-loop latency counts from the due time: requests that queued behind a
// stalled answer show the stall although the server answered them at once.
func TestOpenLoopTimesFromDue(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(300 * time.Millisecond)
		}
	}))
	defer srv.Close()
	c := newClient(1)
	defer c.CloseIdleConnections()
	sched := stream(opUpdate, 50, time.Second, 0)
	openLoop([][]sample{sched}, func(s *sample) {
		resp, err := c.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		s.err = err
	})
	// Request 5 (index 4) stalls; the ones due during the stall go out late.
	for i := 5; i < 10; i++ {
		s := sched[i]
		late, service := ms(s.sent-s.due), ms(s.done-s.sent)
		if late < 100 {
			t.Errorf("request %d due during the stall went out only %.1f ms late", i, late)
		}
		if s.latencyMS() < late+service-1e-6 || service > 100 {
			t.Errorf("request %d: latency %.1f ms, late %.1f ms, service %.1f ms", i, s.latencyMS(), late, service)
		}
	}
	if backlog(sched) {
		t.Error("a single stall was reported as a backlog")
	}

	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(40 * time.Millisecond)
	}))
	defer slow.Close()
	sched = stream(opUpdate, 50, 2*time.Second, 0)
	openLoop([][]sample{sched}, func(s *sample) {
		resp, err := c.Get(slow.URL)
		if err == nil {
			resp.Body.Close()
		}
	})
	if !backlog(sched) {
		t.Error("a server at half the offered rate was not reported as a backlog")
	}
}

// The quartiles match Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		change []float64
		want   string
	}{
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "better"},
		{[]float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, "worse"},
		{[]float64{101, 100, 99, 102, 98, 100, 101, 100, 99, 100}, "unchanged"},
	}
	for _, c := range cases {
		if got := verdict(base, c.change, lower); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.change, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}
	if got := verdict(noisy, []float64{105, 95, 160, 40, 100, 120, 80, 100, 90, 110}, lower); got != "unresolved" {
		t.Errorf("noisy base: verdict %s, want unresolved", got)
	}
}

// The command refuses to run without the repository around it: run.sh
// cannot build, and no result line is printed.
func TestRunShFailsOutsideRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("builds in a scratch copy")
	}
	dir := t.TempDir()
	for _, f := range []string{"BENCHMARK.json"} {
		b, err := os.ReadFile(filepath.Join("..", f))
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(dir, f), b, 0o644)
	}
	os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755)
	entries, _ := os.ReadDir(".")
	for _, en := range entries {
		if en.IsDir() {
			continue
		}
		b, _ := os.ReadFile(en.Name())
		os.WriteFile(filepath.Join(dir, "perfbench", en.Name()), b, 0o644)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "serve-count", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded outside the repository:\n%s", out)
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Fatalf("run.sh printed a result outside the repository:\n%s", out)
	}
}
