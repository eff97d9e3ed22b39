// Command perfbench is the repository benchmark. One invocation runs one
// named workload against the code it was built from, checks every answer
// against the sequential oracle and prints, as its last line, one JSON
// object with the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1) that BENCHMARK.json names.
//
// Workloads:
//
//	serve-count  tcd on g500-s15 (ef 16, seed 42), p=4, channel transport,
//	             closed loop: min(2, nproc) clients issue GET /count back to
//	             back. Every request is a full distributed recount.
//	serve-write  durable tcd (fsync per commit) on the same graph, open loop:
//	             512-mutation POST /update batches and GET /transitivity
//	             reads at fixed rates, each timed from its due time.
//	oneshot-tcp  tc2d.CountRMAT on g500-s16, p=4, loopback TCP, in-process
//	             and back to back: the paper's one-shot use.
//
// The end-to-end metric names are shared by all workloads, since every run
// reports every metric; each workload states what they measure in the
// table this program prints before the JSON line.
//
// Usage (from the repository root; run.sh builds first):
//
//	bash perfbench/run.sh --workload serve-count --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare base.jsonl change.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: serve-count, serve-write or oneshot-tcp")
	seed := fs.Uint64("seed", 1, "workload seed: drives the update stream and the client stream phases")
	seconds := fs.Int("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from the traced run")
	tcdBin := fs.String("tcd", "", "tcd binary built from the code under test")
	workdir := fs.String("workdir", "", "scratch directory for persist dirs and WAL probes")
	record := fs.String("record", "", "append the full run record to this JSON-lines file")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics")
	coldOneshot := fs.Int("cold-oneshot", 0, "run one one-shot count at this RMAT scale in this fresh process and report it (the oneshot-tcp set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *coldOneshot > 0 {
		cfg := defaultConfig
		cfg.OneshotScale = *coldOneshot
		return runColdOneshot(cfg, stdout, stderr)
	}
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		return runCompare(fs.Args()[1:], *specPath, stdout, stderr)
	}

	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	if *workdir == "" {
		fmt.Fprintln(stderr, "perfbench: -workdir is required")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	e := &env{
		cfg:     defaultConfig,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		tcdBin:  *tcdBin,
		workdir: dir,
		self:    self,
	}
	if e.cfg.Clients > runtime.NumCPU() {
		e.cfg.Clients = runtime.NumCPU()
	}
	start := time.Now()
	var out *outcome
	if e.trace {
		out, err = runTraced(e, *workload)
	} else {
		out, err = wl(e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	out.info["run_wall_s"] = time.Since(start).Seconds()
	out.info["seed"] = *seed
	out.info["seconds"] = *seconds
	out.info["workload"] = *workload
	for k, v := range provenance(e, dir) {
		out.info[k] = v
	}

	res, err := out.result(sp, e.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: benchmark defect:", err)
		return 2
	}
	out.print(stdout, *workload, e.trace)
	if *record != "" {
		if err := appendRecord(*record, *workload, *seed, e.trace, res, out); err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
		}
	}
	if e.trace {
		printOverhead(stdout, *record, *workload, out)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// config fixes the frozen datasets, rates and sizes of the workloads.
type config struct {
	Preset    string
	Scale     int // serve workloads' graph
	EF        int
	GraphSeed uint64
	Ranks     int

	OneshotScale int

	Clients    int // serve-count closed-loop clients, at most nproc
	SetupBoots int // fresh tcd boots (or cold one-shot processes) per run for setup_s

	UpdateRate   float64 // POST /update batches per second
	TransRate    float64 // GET /transitivity per second
	BatchSize    int
	DeleteLag    int    // a delete names an edge inserted at least this many batches earlier
	InsertStream uint64 // RMAT seed base of the inserted pairs (xor the workload seed)
}

// defaultConfig is the benchmark as BENCHMARK.json defines it. The update
// rate is about half the closed-loop capacity of one writer (about 75
// batches/s on a 2-CPU host) and, like the transitivity rate, high enough
// that a 30 s window holds ≥ 1000 samples of each stream, which the p99
// needs.
var defaultConfig = config{
	Preset: "g500", Scale: 15, EF: 16, GraphSeed: 42, Ranks: 4,
	OneshotScale: 16,
	Clients:      2,
	SetupBoots:   5,
	UpdateRate:   35, TransRate: 35, BatchSize: 512, DeleteLag: 16,
	InsertStream: 0x5eed0000,
}

// env is what a workload run needs from the command line.
type env struct {
	cfg     config
	seed    uint64
	window  time.Duration
	trace   bool
	tcdBin  string
	workdir string
	self    string

	// wrongOracle perturbs the expected triangle counts; the self-tests
	// use it to show that the correctness gate rejects a wrong answer.
	wrongOracle int64
}

var workloads = map[string]func(e *env) (*outcome, error){
	"serve-count": runServeCount,
	"serve-write": runServeWrite,
	"oneshot-tcp": runOneshot,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// value is one reported number. Alias names the metric in the terms of the
// workload (count_p50_ms, update_p99_ms, ...); Moves, on a per-layer row,
// names the end-to-end metric and workload the layer should move.
type value struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Alias   string  `json:"alias,omitempty"`
	Moves   string  `json:"moves,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int64
	problems          []string // the first failures, for the report

	e2e    []value // end-to-end metrics (traced runs: the traced pass of the workload)
	extra  []value // diagnostics printed but not gated
	layers []value // per-layer metrics (traced runs)
	model  []value // LogGP model outputs: paper reproduction, never gated
	info   map[string]any
}

func newOutcome() *outcome { return &outcome{info: map[string]any{}} }

// maxProblems bounds how many failures a report quotes.
const maxProblems = 10

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note(fmt.Sprintf(format, args...))
}

// warn notes a problem with the measurement itself, not a failed operation.
func (o *outcome) warn(format string, args ...any) {
	o.note("warning: " + fmt.Sprintf(format, args...))
}

func (o *outcome) note(p string) {
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, p)
	}
}

// addExtra records an end-to-end number that is printed and recorded but
// not gated, because it does not repeat closely enough between runs of the
// same code to carry a bound.
func (o *outcome) addExtra(name string, v float64, samples int) {
	o.extra = append(o.extra, value{Name: name, Value: v, Unit: "ms", Alias: "not gated", Samples: samples})
}

func (o *outcome) addE2E(name, alias string, v float64, unit string, samples int) {
	o.e2e = append(o.e2e, value{Name: name, Alias: alias, Value: v, Unit: unit, Samples: samples})
}

func (o *outcome) addLayer(name string, v float64, unit, moves string, samples int) {
	o.layers = append(o.layers, value{Name: name, Value: v, Unit: unit, Moves: moves, Samples: samples})
}

// merge folds the pass of a traced run named pass into o.
func (o *outcome) merge(pass string, p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, pr := range p.problems {
		o.note(pr)
	}
	o.layers = append(o.layers, p.layers...)
	o.model = append(o.model, p.model...)
	o.extra = append(o.extra, p.extra...)
	for k, v := range p.info {
		o.info[pass+"."+k] = v
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result builds the final JSON line and checks that the run emitted
// exactly the metrics the spec names, each with the spec's unit.
func (o *outcome) result(sp *spec, trace bool) (resultLine, error) {
	want, have := sp.EndToEnd, o.e2e
	if trace {
		want, have = sp.PerLayer, o.layers
	}
	got := map[string]value{}
	for _, v := range have {
		if _, dup := got[v.Name]; dup {
			return resultLine{}, fmt.Errorf("metric %s emitted twice", v.Name)
		}
		got[v.Name] = v
	}
	res := resultLine{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return resultLine{}, fmt.Errorf("metric %s not emitted", m.Name)
		}
		if v.Unit != m.Unit {
			return resultLine{}, fmt.Errorf("metric %s emitted in %s, spec says %s", m.Name, v.Unit, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			o.fail("metric %s has no value (%v)", m.Name, v.Value)
			v.Value = 0
		}
		res.Metrics[m.Name] = metricOut{Value: v.Value, Unit: v.Unit}
		delete(got, m.Name)
	}
	for name := range got {
		return resultLine{}, fmt.Errorf("metric %s is not in the spec", name)
	}
	res.Failed = o.failed
	res.Correct = o.failed == 0 && o.attempted > 0
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	return res, nil
}

func (o *outcome) print(w io.Writer, workload string, trace bool) {
	mode := "end-to-end (untraced)"
	if trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== perfbench %s, %s run\n", workload, mode)
	keys := make([]string, 0, len(o.info))
	for k := range o.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   %-28s %v\n", k, o.info[k])
	}
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "-- end-to-end%s\n", map[bool]string{true: " (traced pass)", false: ""}[trace])
	for _, v := range o.e2e {
		printValue(w, v)
	}
	fmt.Fprintf(w, "   %-26s %14.6g %-6s attempted %d, failed %d\n", "error_rate", errRate, "ratio", o.attempted, o.failed)
	for _, v := range o.extra {
		printValue(w, v)
	}
	if len(o.layers) > 0 {
		fmt.Fprintln(w, "-- per layer (row → end-to-end metric @ workload it should move)")
		for _, v := range o.layers {
			printValue(w, v)
		}
	}
	if len(o.model) > 0 {
		fmt.Fprintln(w, "-- LogGP model outputs (paper Table 2 / Fig. 3 reproduction; model numbers, never gated)")
		for _, v := range o.model {
			printValue(w, v)
		}
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "!! ", p)
	}
}

func printValue(w io.Writer, v value) {
	note := v.Alias
	if v.Moves != "" {
		note = "→ " + v.Moves
	}
	if v.Samples > 0 {
		note += fmt.Sprintf(" (n=%d)", v.Samples)
	}
	fmt.Fprintf(w, "   %-26s %14.6g %-6s %s\n", v.Name, v.Value, v.Unit, note)
}

// record is one line of the records file that compare mode reads.
type record struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	E2E       map[string]value `json:"e2e"`
	Layers    map[string]value `json:"layers,omitempty"`
	Extra     []value          `json:"extra,omitempty"`
	Model     []value          `json:"model,omitempty"`
	Info      map[string]any   `json:"info"`
}

func toMap(vs []value) map[string]value {
	m := map[string]value{}
	for _, v := range vs {
		m[v.Name] = v
	}
	return m
}

func appendRecord(path, workload string, seed uint64, trace bool, res resultLine, o *outcome) error {
	rec := record{
		Workload: workload, Seed: seed, Trace: trace,
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		E2E: toMap(o.e2e), Layers: toMap(o.layers), Extra: o.extra, Model: o.model, Info: o.info,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spec is the part of BENCHMARK.json the program checks itself against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, errors.New(path + ": no metrics")
	}
	return &sp, nil
}

// provenance records where and how the numbers were taken.
func provenance(e *env, dir string) map[string]any {
	p := map[string]any{
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"commit":          os.Getenv("PERFBENCH_COMMIT"), // set by run.sh
		"persist_fs":      fsName(dir),
		"dataset":         fmt.Sprintf("%s-s%d ef=%d seed=%d p=%d", e.cfg.Preset, e.cfg.Scale, e.cfg.EF, e.cfg.GraphSeed, e.cfg.Ranks),
		"dataset_oneshot": fmt.Sprintf("%s-s%d ef=%d seed=%d p=%d tcp", e.cfg.Preset, e.cfg.OneshotScale, e.cfg.EF, e.cfg.GraphSeed, e.cfg.Ranks),
		"count_clients":   e.cfg.Clients,
		"write_streams":   "2 (updates, transitivity), one connection each",
		"update_rate_hz":  e.cfg.UpdateRate,
		"trans_rate_hz":   e.cfg.TransRate,
		"batch_size":      e.cfg.BatchSize,
	}
	return p
}
