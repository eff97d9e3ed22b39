package core

import (
	"testing"

	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/rmat"
	"tc2d/internal/seqtc"
)

// kernelThreadSchedule is the differential sweep of the parallel-kernel
// tests: 1 is the sequential oracle, 2 and 3 exercise small pools, 7 does
// not divide typical row counts so buckets are uneven.
var kernelThreadSchedule = []int{1, 2, 3, 7}

// killSwitchCombos returns every combination of the four §5.2 kill
// switches, the fully optimized kernel first.
func killSwitchCombos() []Options {
	var out []Options
	for m := 0; m < 16; m++ {
		out = append(out, Options{
			NoDoublySparse: m&1 != 0,
			NoDirectHash:   m&2 != 0,
			NoEarlyBreak:   m&4 != 0,
			NoBlob:         m&8 != 0,
		})
	}
	return out
}

// TestKernelThreadsDifferential is the exactness contract of the hash
// kernel: for every §5.2 kill-switch combination, every kernel worker
// count, both grid schedules (Cannon on a square rank count, SUMMA on a
// non-square one) and both transports (in-process channels and loopback
// TCP), each count must equal the sequential oracle, and the
// instrumentation counters (probes, mapTasks) — pure sums over (row, task)
// pairs, hence partition-invariant — must reproduce the 1-worker run of
// the same combination. mapTasks is fixed by the decomposition, so it also
// agrees across combinations.
func TestKernelThreadsDifferential(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 8, 8, 5)
	want := seqtc.Count(g)
	combos := killSwitchCombos()
	for _, tcp := range []bool{false, true} {
		for _, p := range []int{9, 6} { // 9 = 3×3 Cannon, 6 = SUMMA
			var w *mpi.World
			if tcp {
				var err error
				if w, err = mpi.NewTCPWorld(p, testCfg()); err != nil {
					t.Fatal(err)
				}
			} else {
				w = mpi.NewWorld(p, testCfg())
			}
			summa := mpi.SquareSide(p) < 0
			preps := make([]*Prepared, p)
			if _, err := w.Run(func(c *mpi.Comm) (any, error) {
				in, err := dgraph.ScatterInput{Graph: g}.Build(c)
				if err != nil {
					return nil, err
				}
				if summa {
					preps[c.Rank()], err = PrepareSUMMA(c, in, Options{})
				} else {
					preps[c.Rank()], err = Prepare(c, in, Options{})
				}
				return nil, err
			}); err != nil {
				w.Close()
				t.Fatalf("tcp=%v p=%d prepare: %v", tcp, p, err)
			}
			var mapTasks int64 = -1
			for _, combo := range combos {
				var base *Result
				for _, threads := range kernelThreadSchedule {
					opt := combo
					opt.KernelThreads = threads
					results, err := w.Run(func(c *mpi.Comm) (any, error) {
						return CountPrepared(c, preps[c.Rank()], opt)
					})
					if err != nil {
						w.Close()
						t.Fatalf("tcp=%v p=%d %+v: %v", tcp, p, opt, err)
					}
					res := results[0].(*Result)
					if res.Triangles != want {
						t.Errorf("tcp=%v p=%d %+v: %d triangles, want %d", tcp, p, opt, res.Triangles, want)
					}
					if res.KernelThreads != threads {
						t.Errorf("tcp=%v p=%d %+v: Result.KernelThreads=%d", tcp, p, opt, res.KernelThreads)
					}
					if base == nil {
						base = res
					} else if res.Probes != base.Probes || res.MapTasks != base.MapTasks {
						t.Errorf("tcp=%v p=%d %+v: counters (probes=%d map=%d) != 1-thread (%d, %d)",
							tcp, p, opt, res.Probes, res.MapTasks, base.Probes, base.MapTasks)
					}
				}
				if mapTasks < 0 {
					mapTasks = base.MapTasks
				} else if base.MapTasks != mapTasks {
					t.Errorf("tcp=%v p=%d %+v: MapTasks=%d, want %d as with every other combination",
						tcp, p, combo, base.MapTasks, mapTasks)
				}
			}
			if err := w.Close(); err != nil {
				t.Errorf("tcp=%v p=%d close: %v", tcp, p, err)
			}
		}
	}
}

// TestKernelThreadsWithAblations checks that every §7.3 ablation toggle
// composes with the parallel kernel on the one-shot count path: the
// triangle count is invariant, and each toggled run's counters are
// identical at 1 and 3 workers.
func TestKernelThreadsWithAblations(t *testing.T) {
	g := mustRMAT(t, rmat.G500, 8, 8, 6)
	want := seqtc.Count(g)
	combos := []Options{
		{NoDoublySparse: true},
		{NoDirectHash: true},
		{NoEarlyBreak: true},
		{NoBlob: true},
		{NoDoublySparse: true, NoDirectHash: true, NoEarlyBreak: true, NoBlob: true},
	}
	for i, opt := range combos {
		opt.KernelThreads = 1
		seq := countVia(t, g, 9, opt)
		opt.KernelThreads = 3
		par := countVia(t, g, 9, opt)
		if seq.Triangles != want || par.Triangles != want {
			t.Errorf("combo %d: triangles seq=%d par=%d, want %d", i, seq.Triangles, par.Triangles, want)
		}
		if par.Probes != seq.Probes || par.MapTasks != seq.MapTasks {
			t.Errorf("combo %d: 3-worker counters (probes=%d map=%d) != sequential (%d, %d)",
				i, par.Probes, par.MapTasks, seq.Probes, seq.MapTasks)
		}
	}
}

// TestKernelPartitionLPT pins the partitioner's contract: every non-empty
// row lands in exactly one bucket, no bucket is assigned a zero-weight row,
// and the heaviest bucket carries at most the average plus one row's
// maximum weight (the classic LPT bound's additive form).
func TestKernelPartitionLPT(t *testing.T) {
	// 6 rows: row weights 5, 5, 3, 3, 2, 2 against a single fat L column.
	var taskPairs, uPairs []int32
	widths := []int{5, 5, 3, 3, 2, 2}
	for a, w := range widths {
		taskPairs = append(taskPairs, int32(a), 0)
		for k := 0; k < w; k++ {
			uPairs = append(uPairs, int32(a), int32(k))
		}
	}
	task := buildCSR(6, [][]int32{taskPairs})
	u := buildCSR(6, [][]int32{uPairs})
	l := cscBlock{cols: 1, xadj: []int32{0, 8}, adj: []int32{0, 1, 2, 3, 4, 5, 6, 7}}
	rows := []int32{0, 1, 2, 3, 4, 5}
	buckets, reported := partitionLPT(rows, &task, &u, &l, 2)
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	seen := map[int32]bool{}
	loads := make([]int64, 2)
	for w, bucket := range buckets {
		for _, a := range bucket {
			if seen[a] {
				t.Errorf("row %d assigned twice", a)
			}
			seen[a] = true
			loads[w] += int64(widths[a])
		}
	}
	if len(seen) != len(rows) {
		t.Errorf("assigned %d rows, want %d", len(seen), len(rows))
	}
	if loads[0] != 10 || loads[1] != 10 {
		t.Errorf("LPT loads %v, want perfect [10 10] on this instance", loads)
	}
	// The reported per-bucket loads use the min(|U-row|, |L-col|) weight,
	// which on this instance (8-wide L column) is the row width itself.
	if reported[0] != loads[0] || reported[1] != loads[1] {
		t.Errorf("reported loads %v, want %v", reported, loads)
	}

	// Zero-weight rows (empty U row or all-empty task columns) are dropped.
	emptyU := buildCSR(6, nil)
	noRows, _ := partitionLPT(rows, &task, &emptyU, &l, 2)
	for _, bucket := range noRows {
		if len(bucket) != 0 {
			t.Errorf("zero-weight rows were assigned: %v", bucket)
		}
	}
}
