package harness

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"tc2d/internal/core"
	"tc2d/internal/mpi"
)

// KernelRow is one measured point of the intra-rank kernel scenario: a
// counting epoch over one resident state at one kernel worker count.
// CountSec is the modeled parallel (virtual) time; WallSec is real seconds
// of the epoch, the quantity kernel threading actually shrinks; Speedup is
// the wall speedup against the 1-thread point. The counters prove
// exactness: Triangles, Probes and MapTasks must be identical across thread
// counts.
type KernelRow struct {
	Dataset   string
	Ranks     int
	Threads   int
	Triangles int64
	CountSec  float64
	WallSec   float64
	Speedup   float64
	Probes    int64
	MapTasks  int64
}

// KernelThreadSchedule is the default worker-count sweep: powers of two
// from 1 up to NumCPU, with NumCPU itself always included. The schedule
// always contains at least {1, 2} — on a single-core host the 2-thread
// point is flat but still exercises (and so validates) the parallel path.
func KernelThreadSchedule() []int {
	max := runtime.NumCPU()
	if max < 2 {
		max = 2
	}
	var out []int
	for t := 1; t < max; t *= 2 {
		out = append(out, t)
	}
	return append(out, max)
}

// RunKernel measures the intra-rank parallel kernel: build the resident
// state for spec once on p ranks, then sweep counting epochs over every
// worker count in threads. Each point repeats per Config.Repeats keeping the
// fastest wall time. The sweep fails loudly if any point disagrees on
// triangles, or if probe/task counters drift across thread counts — the
// exactness contract of the kernel.
func RunKernel(spec Spec, p int, threads []int, cfg Config) ([]KernelRow, error) {
	if len(threads) == 0 {
		threads = KernelThreadSchedule()
	}
	fail := func(err error) error {
		return fmt.Errorf("harness: kernel %s on %d ranks: %w", spec.Name, p, err)
	}
	w := mpi.NewWorld(p, cfg.mpiConfig())
	defer w.Close()
	summa := mpi.SquareSide(p) < 0
	preps := make([]*core.Prepared, p)
	_, err := w.Run(func(c *mpi.Comm) (any, error) {
		d, err := spec.Input().Build(c)
		if err != nil {
			return nil, err
		}
		var pr *core.Prepared
		if summa {
			pr, err = core.PrepareSUMMA(c, d, cfg.Options)
		} else {
			pr, err = core.Prepare(c, d, cfg.Options)
		}
		preps[c.Rank()] = pr
		return nil, err
	})
	if err != nil {
		return nil, fail(err)
	}

	var rows []KernelRow
	var base *KernelRow
	for _, t := range threads {
		opt := cfg.Options
		opt.KernelThreads = t
		var best *KernelRow
		for rep := 0; rep < cfg.repeats(); rep++ {
			t0 := time.Now()
			results, err := w.Run(func(c *mpi.Comm) (any, error) {
				return core.CountPrepared(c, preps[c.Rank()], opt)
			})
			wall := time.Since(t0).Seconds()
			if err != nil {
				return nil, fail(err)
			}
			res := results[0].(*core.Result)
			row := &KernelRow{
				Dataset: spec.Name, Ranks: p, Threads: t,
				Triangles: res.Triangles, CountSec: res.CountTime, WallSec: wall,
				Probes: res.Probes, MapTasks: res.MapTasks,
			}
			if best == nil || row.WallSec < best.WallSec {
				best = row
			}
		}
		if base == nil {
			base = best
		} else if best.Triangles != base.Triangles {
			return nil, fail(fmt.Errorf("threads=%d counted %d triangles, expected %d",
				t, best.Triangles, base.Triangles))
		} else if best.Probes != base.Probes || best.MapTasks != base.MapTasks {
			return nil, fail(fmt.Errorf("threads=%d counters (probes=%d map=%d) drifted from 1-thread (%d, %d)",
				t, best.Probes, best.MapTasks, base.Probes, base.MapTasks))
		}
		if best.WallSec > 0 {
			best.Speedup = base.WallSec / best.WallSec
		}
		rows = append(rows, *best)
	}
	return rows, nil
}

// TableKernel prints the kernel sweep: wall time and speedup per worker
// count, with the probe and task counts that prove exactness.
func TableKernel(w io.Writer, rows []KernelRow) error {
	fprintf(w, "Intra-rank kernel — worker count (wall seconds)\n")
	fprintf(w, "%-22s %6s %8s %10s %8s %12s %12s\n",
		"dataset", "ranks", "threads", "wall(s)", "speedup", "probes", "map")
	for _, r := range rows {
		fprintf(w, "%-22s %6d %8d %10s %7.2fx %12d %12d\n",
			r.Dataset, r.Ranks, r.Threads, fmtSecs(r.WallSec), r.Speedup,
			r.Probes, r.MapTasks)
	}
	return nil
}
