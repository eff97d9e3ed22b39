package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"tc2d"
	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/snapshot"
)

// runTraced is the per-layer run. It measures every layer whatever the
// workload, because the per-layer table is one table: a serve-count pass
// (a third of the window, which still holds the 100 samples its p90
// needs), a full-length serve-write pass (its p99 rows need ≥ 1000
// samples) and the in-process module pass, whose spans sit around calls
// into each module's exported functions. The named workload's own pass
// runs for the whole window, and its end-to-end numbers are the traced
// side of the tracing-overhead comparison.
func runTraced(e *env, workload string) (*outcome, error) {
	o := newOutcome()
	ec := *e
	ec.cfg.SetupBoots = 1
	if workload != "serve-count" {
		ec.window = e.window / 3
	}
	oc, err := runServeCount(&ec)
	if err != nil {
		return nil, fmt.Errorf("serve-count pass: %w", err)
	}
	ew := *e
	ew.cfg.SetupBoots = 1
	ow, err := runServeWrite(&ew)
	if err != nil {
		return nil, fmt.Errorf("serve-write pass: %w", err)
	}
	om, err := runModules(e, workload == "oneshot-tcp")
	if err != nil {
		return nil, fmt.Errorf("module pass: %w", err)
	}
	o.merge("serve-count", oc)
	o.merge("serve-write", ow)
	o.merge("modules", om)
	switch workload {
	case "serve-count":
		o.e2e = oc.e2e
	case "serve-write":
		o.e2e = ow.e2e
	default:
		o.e2e = om.e2e
	}
	return o, nil
}

func mpiConfig() mpi.Config {
	return mpi.Config{Model: mpi.DefaultCostModel(), ComputeSlots: runtime.GOMAXPROCS(0)}
}

// rankRec is one rank's spans and stat deltas in a module-pass epoch.
type rankRec struct {
	build, prepare, span time.Duration
	stats                mpi.Stats // delta over CountPrepared
	res                  *core.Result
	prep                 *core.Prepared
}

func (r *rankRec) noncomputeMS() float64 { return ms(r.span) - r.stats.WallComp*1e3 }

func statsDelta(a, b mpi.Stats) mpi.Stats {
	return mpi.Stats{
		BytesSent: b.BytesSent - a.BytesSent, MsgsSent: b.MsgsSent - a.MsgsSent,
		CommTime: b.CommTime - a.CommTime, CompTime: b.CompTime - a.CompTime,
		WallComp: b.WallComp - a.WallComp,
	}
}

// countEpoch runs CountPrepared on every rank with a span around the call.
func countEpoch(c *mpi.Comm, prep *core.Prepared, r *rankRec) error {
	s0 := c.Stats()
	t := time.Now()
	res, err := core.CountPrepared(c, prep, core.Options{})
	r.span = time.Since(t)
	r.stats = statsDelta(s0, c.Stats())
	r.res = res
	return err
}

// dispatchUS times an epoch that does nothing, which is the cost of
// getting every rank into and out of one epoch.
func dispatchUS(w *mpi.World, n int) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := w.RunRead(func(c *mpi.Comm) (any, error) { return nil, nil }); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t))/float64(time.Microsecond))
	}
	return median(xs), nil
}

// runModules is the in-process module pass. With oneshotFull the traced
// one-shot decomposition repeats for the whole window (the oneshot-tcp
// traced run); otherwise twice.
func runModules(e *env, oneshotFull bool) (*outcome, error) {
	o := newOutcome()
	if err := oneshotModules(e, o, oneshotFull); err != nil {
		return nil, err
	}
	if err := serveModules(e, o); err != nil {
		return nil, err
	}
	return o, nil
}

// oneshotModules decomposes the oneshot-tcp call — TCP world set-up, RMAT
// generation and distribution, preprocessing, counting — with a span
// around each module's part.
func oneshotModules(e *env, o *outcome, full bool) error {
	cfg := e.cfg
	_, oracle, err := frozenGraph(cfg, cfg.OneshotScale)
	if err != nil {
		return err
	}
	p := cfg.Ranks
	in := dgraph.RMATInput{Params: tc2d.G500, Scale: cfg.OneshotScale, EdgeFactor: cfg.EF, Seed: cfg.GraphSeed}
	var setup, build, prepare, noncomp, modelRatio, calls, dispatch []float64
	var last []rankRec
	start := time.Now()
	for it := 0; it < 2 || (full && time.Since(start) < e.window); it++ {
		t0 := time.Now()
		w, err := mpi.NewTCPWorld(p, mpiConfig())
		if err != nil {
			return err
		}
		setup = append(setup, ms(time.Since(t0)))
		recs := make([]rankRec, p)
		_, err = w.Run(func(c *mpi.Comm) (any, error) {
			r := &recs[c.Rank()]
			t := time.Now()
			d, err := in.Build(c)
			r.build = time.Since(t)
			if err != nil {
				return nil, err
			}
			t = time.Now()
			r.prep, err = core.Prepare(c, d, core.Options{})
			r.prepare = time.Since(t)
			if err != nil {
				return nil, err
			}
			return nil, countEpoch(c, r.prep, r)
		})
		if err == nil && it == 0 {
			var us float64
			us, err = dispatchUS(w, 200)
			dispatch = append(dispatch, us)
		}
		w.Close()
		if it > 0 {
			calls = append(calls, ms(time.Since(t0)))
		}
		o.attempted++
		if err != nil {
			o.fail("traced one-shot: %v", err)
			continue
		}
		if got := recs[0].res.Triangles; got != oracle+e.wrongOracle {
			o.fail("traced one-shot counted %d triangles, oracle says %d", got, oracle+e.wrongOracle)
		}
		var b, pr, nc, mr []float64
		for i := range recs {
			b = append(b, ms(recs[i].build))
			pr = append(pr, ms(recs[i].prepare))
			nc = append(nc, recs[i].noncomputeMS())
			mr = append(mr, recs[i].stats.CommTime*1e3/recs[i].noncomputeMS())
		}
		build = append(build, maxOf(b))
		prepare = append(prepare, maxOf(pr))
		noncomp = append(noncomp, meanOf(nc))
		modelRatio = append(modelRatio, meanOf(mr))
		last = recs
	}
	if last == nil {
		return fmt.Errorf("no traced one-shot call succeeded")
	}
	var msgs, bytes int64
	for i := range last {
		msgs += last[i].stats.MsgsSent
		bytes += last[i].stats.BytesSent
	}
	const toOneshot = "oneshot_s (p50_ms) @ oneshot-tcp"
	o.addLayer("dgraph.build_ms", median(build), "ms", toOneshot+"; setup_s", len(build))
	o.addLayer("core.prepare_ms", median(prepare), "ms", toOneshot+"; setup_s", len(prepare))
	o.addLayer("mpi.world_setup_ms", median(setup), "ms", toOneshot, len(setup))
	o.addLayer("mpi.rank_noncompute_ms", median(noncomp), "ms", toOneshot+"; count_p50_ms @ serve-count", len(noncomp))
	o.addLayer("mpi.model_comm_ratio", median(modelRatio), "ratio", "truth check of the LogGP model, no metric", len(modelRatio))
	o.addLayer("mpi.msgs", float64(msgs), "count", toOneshot, 1)
	o.addLayer("mpi.bytes", float64(bytes), "bytes", toOneshot, 1)
	o.addLayer("mpi.epoch_dispatch_tcp_us", median(dispatch), "us", "count_p50_ms (p50_ms) @ serve-count", 200)

	r0 := last[0]
	o.model = append(o.model,
		value{Name: "model.preprocess_s", Value: r0.prep.PreprocessTime(), Unit: "s", Alias: "LogGP virtual preprocessing time, oneshot-tcp"},
		value{Name: "model.count_s", Value: r0.res.CountTime, Unit: "s", Alias: "LogGP virtual counting time, oneshot-tcp"},
		value{Name: "model.comm_frac_pre", Value: r0.prep.CommFracPre(), Unit: "ratio", Alias: "LogGP comm share of preprocessing (Fig. 3)"},
		value{Name: "model.comm_frac_count", Value: r0.res.CommFracCount, Unit: "ratio", Alias: "LogGP comm share of counting (Fig. 3)"},
	)
	if len(calls) > 0 {
		c50 := median(calls)
		o.addE2E("p50_ms", "oneshot_s × 1000, traced decomposition", c50, "ms", len(calls))
		o.addE2E("ops_per_s", "traced one-shot calls per second", 1e3/meanOf(calls), "1/s", len(calls))
	}
	return nil
}

// serveModules measures the modules under the serve workloads on their
// frozen graph over the channel transport: the counting kernel, epoch
// dispatch, the delta write path, rebuilds and the durability layer.
func serveModules(e *env, o *outcome) error {
	cfg := e.cfg
	g, oracle, err := frozenGraph(cfg, cfg.Scale)
	if err != nil {
		return err
	}
	p := cfg.Ranks
	in := dgraph.ScatterInput{Graph: g}
	w := mpi.NewWorld(p, mpiConfig())
	defer w.Close()
	preps := make([]*core.Prepared, p)
	if _, err := w.Run(func(c *mpi.Comm) (any, error) {
		d, err := in.Build(c)
		if err != nil {
			return nil, err
		}
		preps[c.Rank()], err = core.Prepare(c, d, core.Options{})
		return nil, err
	}); err != nil {
		return err
	}

	count := func() ([]rankRec, error) {
		recs := make([]rankRec, p)
		_, err := w.RunRead(func(c *mpi.Comm) (any, error) {
			return nil, countEpoch(c, preps[c.Rank()], &recs[c.Rank()])
		})
		return recs, err
	}
	var kernel []float64
	var probes, tasks int64
	for k := 0; k < 5; k++ {
		recs, err := count()
		o.attempted++
		if err != nil {
			o.fail("CountPrepared: %v", err)
			continue
		}
		if got := recs[0].res.Triangles; got != oracle+e.wrongOracle {
			o.fail("CountPrepared counted %d triangles, oracle says %d", got, oracle+e.wrongOracle)
		}
		var wc []float64
		for i := range recs {
			wc = append(wc, recs[i].stats.WallComp*1e3)
		}
		kernel = append(kernel, maxOf(wc))
		probes, tasks = recs[0].res.Probes, recs[0].res.MapTasks
	}
	disp, err := dispatchUS(w, 200)
	if err != nil {
		return err
	}
	const toCount = "count_p50_ms (p50_ms) @ serve-count"
	o.addLayer("core.kernel_wall_ms", median(kernel), "ms", toCount+"; oneshot_s @ oneshot-tcp", len(kernel))
	o.addLayer("core.probes", float64(probes), "count", toCount, 1)
	o.addLayer("core.map_tasks", float64(tasks), "count", toCount, 1)
	o.addLayer("mpi.epoch_dispatch_chan_us", disp, "us", toCount, 200)

	// The delta write path, on the serve-write stream's first batches.
	gen := newWriteGen(g, cfg, cfg.Scale, e.seed)
	const warm, timed = 2, 24
	var apply []float64
	for k := 0; k < warm+timed; k++ {
		b := gen.next()
		canon, _, err := delta.Canonicalize(b.ups, int64(g.N))
		if err != nil {
			return err
		}
		t := time.Now()
		res, err := w.Run(func(c *mpi.Comm) (any, error) {
			return delta.Apply(c, preps[c.Rank()], canon)
		})
		d := time.Since(t)
		o.attempted++
		if err != nil {
			o.fail("delta.Apply: %v", err)
			continue
		}
		if r := res[0].(*delta.Result); int64(r.Inserted) != b.ins || int64(r.Deleted) != b.del {
			o.fail("delta.Apply applied %d/%d, generator expects %d/%d", r.Inserted, r.Deleted, b.ins, b.del)
		}
		if k >= warm {
			apply = append(apply, ms(d))
		}
	}
	var rebuild []float64
	for k := 0; k < 2; k++ {
		next := make([]*core.Prepared, p)
		t := time.Now()
		_, err := w.Run(func(c *mpi.Comm) (any, error) {
			np, err := delta.Rebuild(c, preps[c.Rank()])
			next[c.Rank()] = np
			return nil, err
		})
		if err != nil {
			return fmt.Errorf("delta.Rebuild: %w", err)
		}
		rebuild = append(rebuild, ms(time.Since(t)))
		preps = next
	}
	after, err := gen.graph()
	if err != nil {
		return err
	}
	recs, err := count()
	o.attempted++
	if want := tc2d.CountSequential(after) + e.wrongOracle; err != nil || recs[0].res.Triangles != want {
		o.fail("count after delta.Apply and delta.Rebuild: %v (got %v, oracle %d)", err, recs[0].res, want)
	}
	const toUpdate = "update_p50_ms (p50_ms) @ serve-write"
	const toTails = "update_p99_ms, transitivity_p99_ms (not gated) @ serve-write"
	o.addLayer("delta.apply_ms", median(apply), "ms", toUpdate, len(apply))
	o.addLayer("delta.rebuild_ms", median(rebuild), "ms", toTails, len(rebuild))

	// WAL appends with fsync of a batch-sized record, on the filesystem
	// that holds the persist directories.
	wal, err := snapshot.CreateWAL(filepath.Join(e.workdir, "wal-probe"), 0, 0, true)
	if err != nil {
		return err
	}
	payload := walPayload(cfg.BatchSize)
	var appends []float64
	for i := 1; i <= 1000; i++ {
		t := time.Now()
		if err := wal.Append(uint64(i), payload); err != nil {
			wal.Close()
			return err
		}
		appends = append(appends, ms(time.Since(t)))
	}
	if err := wal.Close(); err != nil {
		return err
	}
	o.addLayer("snapshot.wal_append_ms", median(appends), "ms", toUpdate, len(appends))
	o.addLayer("snapshot.wal_append_p99_ms", pct(o, "WAL append", appends, 0.99), "ms", toUpdate, len(appends))

	// Snapshot writes: each rank's encoded state, then the commit.
	blobs := make([][]byte, p)
	for r := range blobs {
		blobs[r] = core.EncodePrepared(preps[r])
	}
	var writes []float64
	for k := 0; k < 3; k++ {
		t := time.Now()
		sw, err := snapshot.NewWriter(filepath.Join(e.workdir, "snapshot-probe"), uint64(k+1))
		if err != nil {
			return err
		}
		for r := range blobs {
			if err := sw.WriteRank(r, blobs[r]); err != nil {
				sw.Abort()
				return err
			}
		}
		if err := sw.Commit(snapshot.Manifest{Ranks: p, Triangles: oracle}); err != nil {
			return err
		}
		writes = append(writes, ms(time.Since(t)))
	}
	o.addLayer("snapshot.write_ms", median(writes), "ms", "update_p99_ms (not gated) @ serve-write", len(writes))
	return nil
}

// walPayload is a record the size of one committed batch of n updates in
// the cluster's WAL encoding: a count, then (u, v, op) triples.
func walPayload(n int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(n))
	for i := 0; i < n; i++ {
		b = binary.LittleEndian.AppendUint32(b, uint32(i))
		b = binary.LittleEndian.AppendUint32(b, uint32(i+1))
		b = binary.LittleEndian.AppendUint32(b, 0)
	}
	return b
}
