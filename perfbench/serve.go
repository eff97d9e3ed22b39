package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"tc2d"
)

// frozenGraph generates a frozen dataset and its sequential oracle count,
// outside any timed region.
func frozenGraph(cfg config, scale int) (*tc2d.Graph, int64, error) {
	g, err := tc2d.GenerateRMAT(tc2d.G500, scale, cfg.EF, cfg.GraphSeed)
	if err != nil {
		return nil, 0, err
	}
	return g, tc2d.CountSequential(g), nil
}

func tcdArgs(cfg config, persistDir string) []string {
	args := []string{
		"-preset", cfg.Preset, "-rmat", strconv.Itoa(cfg.Scale), "-ef", strconv.Itoa(cfg.EF),
		"-seed", strconv.FormatUint(cfg.GraphSeed, 10), "-ranks", strconv.Itoa(cfg.Ranks),
	}
	if persistDir != "" {
		args = append(args, "-persist-dir", persistDir)
	}
	return args
}

// bootTCDs boots n fresh tcds one after another (each durable one on an
// empty persist directory), timing launch to first answered /transitivity,
// runs warm on each, reads its peak RSS and keeps the last one running for
// the measured window.
func bootTCDs(e *env, durable bool, n int, warm func(p *tcdProc)) (last *tcdProc, setups, peaks []float64, err error) {
	probe := newClient(1)
	defer probe.CloseIdleConnections()
	for i := 0; i < n; i++ {
		pdir := ""
		if durable {
			pdir = filepath.Join(e.workdir, fmt.Sprintf("persist-%d", i))
		}
		p, err := startTCD(e.tcdBin, tcdArgs(e.cfg, pdir))
		if err != nil {
			return nil, nil, nil, err
		}
		d, err := p.waitFirstAnswer(probe, 150*time.Second)
		if err != nil {
			p.stop()
			return nil, nil, nil, err
		}
		setups = append(setups, d.Seconds())
		warm(p)
		rss, err := p.peakRSSMB()
		if err != nil {
			p.stop()
			return nil, nil, nil, err
		}
		peaks = append(peaks, rss)
		if i == n-1 {
			return p, setups, peaks, nil
		}
		p.stop()
		if pdir != "" {
			os.RemoveAll(pdir)
		}
	}
	return nil, nil, nil, fmt.Errorf("no tcd boots requested")
}

// sample is one request of a measured window. Offsets are from the window
// start; in a closed loop a request is due when it is sent.
type sample struct {
	kind      int
	due, sent time.Duration
	done      time.Duration
	wallMS    float64 // the server's own span around the cluster call
	err       error
	batch     int   // serve-write updates: index into the batch list
	triangles int64 // the answer's triangle count
}

const (
	opCount = iota
	opUpdate
	opTransitivity
)

func (s *sample) latencyMS() float64 { return ms(s.done - s.due) }

// httpMS is the time outside the server's cluster call: HTTP and JSON on
// both sides plus the loopback hop.
func (s *sample) httpMS() float64 { return ms(s.done-s.sent) - s.wallMS }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type countResp struct {
	Triangles int64   `json:"triangles"`
	WallMS    float64 `json:"wall_ms"`
}

type updateResp struct {
	Inserted  int64   `json:"inserted"`
	Deleted   int64   `json:"deleted"`
	Triangles int64   `json:"triangles"`
	WallMS    float64 `json:"wall_ms"`
}

type transResp struct {
	Transitivity float64 `json:"transitivity"`
	Wedges       int64   `json:"wedges"`
	WallMS       float64 `json:"wall_ms"`
}

// closedLoop runs conns clients that each send their next request as soon
// as the previous one answered, until the window has passed.
func closedLoop(conns int, window time.Duration, do func(s *sample)) ([]sample, time.Duration) {
	start := time.Now()
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				t := time.Since(start)
				if t >= window {
					return
				}
				s := sample{due: t, sent: t}
				do(&s)
				s.done = time.Since(start)
				per[i] = append(per[i], s)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// openLoop sends every stream's requests at their due times, each stream
// in order over its own connection. A request whose connection is still
// busy waits, and its latency still counts from its due time, so a stall
// is charged to every request it delays.
func openLoop(streams [][]sample, do func(s *sample)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, st := range streams {
		wg.Add(1)
		go func(st []sample) {
			defer wg.Done()
			for j := range st {
				s := &st[j]
				if d := time.Until(start.Add(s.due)); d > 0 {
					time.Sleep(d)
				}
				s.sent = time.Since(start)
				do(s)
				s.done = time.Since(start)
			}
		}(st)
	}
	wg.Wait()
	return time.Since(start)
}

// stream lays out a fixed-rate stream over the window, starting phase
// (a fraction of one interval) after the window opens.
func stream(kind int, rate float64, window time.Duration, phase float64) []sample {
	n := int(rate * window.Seconds())
	out := make([]sample, n)
	for i := range out {
		out[i] = sample{kind: kind, batch: i, due: time.Duration((float64(i) + phase) / rate * float64(time.Second))}
	}
	return out
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick returns the values of f over the samples of one kind that succeeded.
func pick(ss []sample, kind int, f func(*sample) float64) []float64 {
	var xs []float64
	for i := range ss {
		if ss[i].kind == kind && ss[i].err == nil {
			xs = append(xs, f(&ss[i]))
		}
	}
	return xs
}

// pct is quantile plus the rule that a percentile is reported only when at
// least ten samples lie beyond it: the workloads are sized so that it holds,
// and a run short of that (a much slower program) is flagged.
func pct(o *outcome, what string, xs []float64, q float64) float64 {
	v, beyond := quantile(xs, q)
	if beyond < 10 {
		o.warn("%s: only %d samples beyond p%g of %d", what, beyond, q*100, len(xs))
	}
	return v
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}

// runServeCount: every request a full distributed recount.
func runServeCount(e *env) (*outcome, error) {
	o := newOutcome()
	_, oracle, err := frozenGraph(e.cfg, e.cfg.Scale)
	if err != nil {
		return nil, err
	}
	want := oracle + e.wrongOracle
	o.info["oracle_triangles"] = oracle

	c := newClient(e.cfg.Clients)
	defer c.CloseIdleConnections()
	var base string // the tcd being driven
	do := func(s *sample) {
		s.kind = opCount
		var r countResp
		s.err = call(c, http.MethodGet, base+"/count", nil, &r)
		if s.err == nil && r.Triangles != want {
			s.err = fmt.Errorf("GET /count answered %d triangles, oracle says %d", r.Triangles, want)
		}
		s.wallMS, s.triangles = r.WallMS, r.Triangles
	}
	// Every boot is warmed with one recount per client before its peak RSS
	// is read, so the peak of each booted tcd covers the workload's own
	// allocations; the window then runs on the last one.
	warm := func(p *tcdProc) {
		base = p.base
		var wg sync.WaitGroup
		warmups := make([]sample, e.cfg.Clients)
		for i := range warmups {
			wg.Add(1)
			go func(s *sample) {
				defer wg.Done()
				do(s)
			}(&warmups[i])
		}
		wg.Wait()
		for _, s := range warmups {
			o.attempted++
			if s.err != nil {
				o.fail("warm-up: %v", s.err)
			}
		}
		c.CloseIdleConnections()
	}
	p, setups, peaks, err := bootTCDs(e, false, e.cfg.SetupBoots, warm)
	if err != nil {
		return nil, err
	}
	defer p.stop()

	st0, err := readStats(c, p.base)
	if err != nil {
		return nil, err
	}
	ss, elapsed := closedLoop(e.cfg.Clients, e.window, do)
	st1, err := readStats(c, p.base)
	if err != nil {
		return nil, err
	}
	if peaks[len(peaks)-1], err = p.peakRSSMB(); err != nil {
		return nil, err
	}
	for i := range ss {
		o.attempted++
		if ss[i].err != nil {
			o.fail("%v", ss[i].err)
		}
	}
	lat := pick(ss, opCount, (*sample).latencyMS)
	p50 := median(lat)
	p90 := pct(o, "count latency", lat, 0.90)
	qps := float64(len(lat)) / elapsed.Seconds()
	o.addE2E("p50_ms", "count_p50_ms", p50, "ms", len(lat))
	o.addE2E("ops_per_s", "count_qps", qps, "1/s", len(lat))
	o.addE2E("peak_rss_mb", "VmHWM of tcd, median over the booted tcds", median(peaks), "MB", len(peaks))
	o.addE2E("setup_s", "tcd launch to first /transitivity", median(setups), "s", len(setups))
	o.info["setup_s_each"] = setups
	o.info["peak_rss_mb_each"] = peaks
	o.addExtra("count_p90_ms", p90, len(lat))

	wall := pick(ss, opCount, func(s *sample) float64 { return s.wallMS })
	o.addLayer("tcd.count_http_ms", median(pick(ss, opCount, (*sample).httpMS)), "ms", "count_p50_ms (p50_ms) @ serve-count", len(wall))
	o.addLayer("cluster.count_ms", median(wall), "ms", "count_p50_ms (p50_ms) @ serve-count", len(wall))
	o.addLayer("sched.read_share", ratio(st1.Cluster.Queries-st0.Cluster.Queries, st1.Scheduler.ReadEpochs-st0.Scheduler.ReadEpochs), "ratio", "count_qps (ops_per_s) @ serve-count", 1)
	return o, nil
}

// runServeWrite: the durable write path under an open loop of updates and
// transitivity reads.
func runServeWrite(e *env) (*outcome, error) {
	o := newOutcome()
	base, _, err := frozenGraph(e.cfg, e.cfg.Scale)
	if err != nil {
		return nil, err
	}
	gen := newWriteGen(base, e.cfg, e.cfg.Scale, e.seed)
	const warmBatches = 2
	updates := stream(opUpdate, e.cfg.UpdateRate, e.window, 0)
	if len(updates) == 0 {
		return nil, fmt.Errorf("a %v window holds no update", e.window)
	}
	reads := stream(opTransitivity, e.cfg.TransRate, e.window, float64(splitmix(e.seed)%1000)/1000)
	batches := make([]genBatch, warmBatches+len(updates))
	for i := range batches {
		batches[i] = gen.next()
	}
	for i := range updates {
		updates[i].batch += warmBatches
	}

	p, setups, _, err := bootTCDs(e, true, e.cfg.SetupBoots, func(*tcdProc) {})
	if err != nil {
		return nil, err
	}
	defer p.stop()
	c := newClient(2) // one connection per stream
	defer c.CloseIdleConnections()
	do := func(s *sample) {
		switch s.kind {
		case opUpdate:
			b := &batches[s.batch]
			var r updateResp
			s.err = call(c, http.MethodPost, p.base+"/update", b.body, &r)
			if s.err == nil && (r.Inserted != b.ins || r.Deleted != b.del) {
				s.err = fmt.Errorf("batch %d acknowledged %d inserted / %d deleted, generator expects %d / %d",
					s.batch, r.Inserted, r.Deleted, b.ins, b.del)
			}
			s.wallMS, s.triangles = r.WallMS, r.Triangles
		case opTransitivity:
			var r transResp
			s.err = call(c, http.MethodGet, p.base+"/transitivity", nil, &r)
			if s.err == nil && !(r.Transitivity > 0 && r.Transitivity < 1 && r.Wedges > 0) {
				s.err = fmt.Errorf("GET /transitivity answered %v over %d wedges", r.Transitivity, r.Wedges)
			}
			s.wallMS = r.WallMS
		}
	}
	// Warm-up outside the window: the first write epochs build the
	// resident row-adjacency mirrors.
	for i := 0; i < warmBatches; i++ {
		s := sample{kind: opUpdate, batch: i}
		do(&s)
		o.attempted++
		if s.err != nil {
			o.fail("warm-up: %v", s.err)
		}
	}

	st0, err := readStats(c, p.base)
	if err != nil {
		return nil, err
	}
	elapsed := openLoop([][]sample{updates, reads}, do)
	st1, err := readStats(c, p.base)
	if err != nil {
		return nil, err
	}
	var final countResp
	finalErr := call(c, http.MethodGet, p.base+"/count", nil, &final)
	rss, err := p.peakRSSMB()
	if err != nil {
		return nil, err
	}
	p.stop()

	// The oracle: the frozen graph plus and minus every mutation sent.
	g, err := gen.graph()
	if err != nil {
		return nil, err
	}
	oracle := tc2d.CountSequential(g) + e.wrongOracle
	o.info["oracle_triangles"] = oracle - e.wrongOracle

	all := append(append([]sample(nil), updates...), reads...)
	for i := range all {
		o.attempted++
		if all[i].err != nil {
			o.fail("%v", all[i].err)
		}
	}
	// The update stream runs on one connection, so its last request is
	// the last write applied.
	last := updates[len(updates)-1]
	o.attempted++
	switch {
	case finalErr != nil:
		o.fail("final GET /count: %v", finalErr)
	case final.Triangles != oracle:
		o.fail("final GET /count answered %d triangles, oracle says %d", final.Triangles, oracle)
	case last.err == nil && last.triangles != oracle:
		o.fail("last acknowledged update reports %d triangles, oracle says %d", last.triangles, oracle)
	}

	late := pick(all, opUpdate, func(s *sample) float64 { return ms(s.sent - s.due) })
	late = append(late, pick(all, opTransitivity, func(s *sample) float64 { return ms(s.sent - s.due) })...)
	if backlog(updates) || backlog(reads) {
		o.fail("the generator fell behind its schedule: the offered rate exceeds capacity (a backlog, not a latency)")
	}

	upd := pick(all, opUpdate, (*sample).latencyMS)
	tr := pick(all, opTransitivity, (*sample).latencyMS)
	updP50, trP50 := median(upd), median(tr)
	updP99 := pct(o, "update latency", upd, 0.99)
	trP99 := pct(o, "transitivity latency", tr, 0.99)
	o.addE2E("p50_ms", "update_p50_ms", updP50, "ms", len(upd))
	o.addE2E("ops_per_s", "acknowledged update batches per second", float64(len(upd))/elapsed.Seconds(), "1/s", len(upd))
	o.addE2E("peak_rss_mb", "VmHWM of the serving tcd after the window", rss, "MB", 1)
	o.addE2E("setup_s", "durable tcd launch to first /transitivity", median(setups), "s", len(setups))
	o.info["setup_s_each"] = setups
	// The tails hang on a handful of rebuild and snapshot stalls per run,
	// and the transitivity median falls between the no-wait mode and the
	// wait-behind-a-write mode of the read latencies.
	o.addExtra("update_p99_ms", updP99, len(upd))
	o.addExtra("transitivity_p50_ms", trP50, len(tr))
	o.addExtra("transitivity_p99_ms", trP99, len(tr))
	o.info["rebuilds"] = st1.Cluster.Rebuilds - st0.Cluster.Rebuilds
	o.info["snapshots"] = st1.Persist.Snapshots - st0.Persist.Snapshots

	lateP99, _ := quantile(late, 0.99)
	updWall := pick(all, opUpdate, func(s *sample) float64 { return s.wallMS })
	trWall := pick(all, opTransitivity, func(s *sample) float64 { return s.wallMS })
	o.addLayer("tcd.update_http_ms", median(pick(all, opUpdate, (*sample).httpMS)), "ms", "update_p50_ms (p50_ms) @ serve-write", len(upd))
	o.addLayer("tcd.transitivity_http_ms", median(pick(all, opTransitivity, (*sample).httpMS)), "ms", "transitivity_p50_ms (not gated) @ serve-write", len(tr))
	o.addLayer("sched.write_coalescing", ratio(st1.Scheduler.CoalescedBatches-st0.Scheduler.CoalescedBatches, st1.Scheduler.WriteEpochs-st0.Scheduler.WriteEpochs), "ratio", "update_p50_ms (p50_ms) @ serve-write", 1)
	o.addLayer("cluster.apply_ms", median(updWall), "ms", "update_p50_ms (p50_ms) @ serve-write", len(updWall))
	o.addLayer("cluster.apply_p99_ms", pct(o, "apply span", updWall, 0.99), "ms", "update_p99_ms (not gated) @ serve-write", len(updWall))
	o.addLayer("cluster.gate_wait_p99_ms", pct(o, "transitivity span", trWall, 0.99), "ms", "transitivity_p99_ms (not gated) @ serve-write", len(trWall))
	o.addLayer("cluster.rebuilds", float64(st1.Cluster.Rebuilds-st0.Cluster.Rebuilds), "count", "update_p99_ms, transitivity_p99_ms (not gated) @ serve-write", 1)
	o.addLayer("cluster.incremental_rebuilds", float64(st1.Cluster.IncrementalRebuilds-st0.Cluster.IncrementalRebuilds), "count", "update_p99_ms, transitivity_p99_ms (not gated) @ serve-write", 1)
	o.addLayer("persist.snapshots", float64(st1.Persist.Snapshots-st0.Persist.Snapshots), "count", "update_p99_ms, transitivity_p99_ms (not gated) @ serve-write", 1)
	o.addLayer("persist.delta_snapshots", float64(st1.Persist.DeltaSnapshots-st0.Persist.DeltaSnapshots), "count", "update_p99_ms, transitivity_p99_ms (not gated) @ serve-write", 1)
	o.addLayer("gen.late_p99_ms", lateP99, "ms", "validity of every serve-write metric", len(late))
	return o, nil
}

// backlog reports whether the generator ran behind schedule for good: in
// the last quarter of the window the median request went out more than
// 100 ms late. A stall makes requests late for a while; only an offered
// rate above capacity keeps them late.
func backlog(st []sample) bool {
	if len(st) == 0 {
		return false
	}
	end := st[len(st)-1].due
	var late []float64
	for _, s := range st {
		if s.due >= end*3/4 {
			late = append(late, ms(s.sent-s.due))
		}
	}
	return median(late) > 100
}
