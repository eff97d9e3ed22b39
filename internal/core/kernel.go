package core

import (
	"runtime"
	"sort"
	"sync"

	"tc2d/internal/hashset"
	"tc2d/internal/obs"
)

// kernelCounters accumulates the instrumentation the paper reports. Every
// field is a pure sum over (row, task) pairs, so any partitioning of the
// pairs across workers reproduces the same totals.
type kernelCounters struct {
	triangles int64
	probes    int64 // hash-map lookups (Fig 2's tct ops; §7.1's probe metric)
	mapTasks  int64 // (task, shift) pairs that ran a set intersection (Table 4)
}

func (kc *kernelCounters) add(o kernelCounters) {
	kc.triangles += o.triangles
	kc.probes += o.probes
	kc.mapTasks += o.mapTasks
}

// kernelRow runs one task row of one compute step: hash the U-block row a
// once (lazily — only if some task column is non-empty) and probe it with
// the L-block column of every task (map-based intersection, §3.1/§5.1).
// Every hit is one triangle.
//
// Optimizations (§5.2), each toggleable:
//   - direct hashing: when the row's largest key fits under the map mask,
//     insert/lookup with a single bitwise AND, no probing;
//   - early break: probe the (ascending sorted) column backwards and stop
//     at the first key below the hashed row's minimum.
func kernelRow(a int32, task *csrBlock, u *csrBlock, l *cscBlock, set *hashset.Set, opt Options, kc *kernelCounters) {
	tcols := task.row(a)
	if len(tcols) == 0 {
		return
	}
	urow := u.row(a)
	if len(urow) == 0 {
		// No U entries for this row in the current residue class:
		// nothing can intersect this shift.
		return
	}
	built := false
	minKey := urow[0] // rows are sorted ascending
	for _, b := range tcols {
		col := l.col(b)
		if len(col) == 0 {
			continue
		}
		kc.mapTasks++
		if !built {
			direct := !opt.NoDirectHash && urow[len(urow)-1] <= set.Mask()
			set.Reset(direct)
			for _, k := range urow {
				set.Insert(k)
			}
			built = true
		}
		if !opt.NoEarlyBreak {
			for idx := len(col) - 1; idx >= 0; idx-- {
				k := col[idx]
				if k < minKey {
					break
				}
				kc.probes++
				if set.Contains(k) {
					kc.triangles++
				}
			}
		} else {
			for _, k := range col {
				kc.probes++
				if set.Contains(k) {
					kc.triangles++
				}
			}
		}
	}
}

// runKernel is the sequential driver: one compute step's triangles, counted
// on the calling goroutine.
func runKernel(task *csrBlock, taskRows []int32, u *csrBlock, l *cscBlock, set *hashset.Set, opt Options, kc *kernelCounters) {
	if !opt.NoDoublySparse {
		for _, a := range taskRows {
			kernelRow(a, task, u, l, set, opt, kc)
		}
	} else {
		for a := int32(0); a < task.rows; a++ {
			kernelRow(a, task, u, l, set, opt, kc)
		}
	}
}

// kernelWorkers resolves Options.KernelThreads: 0 (or a negative value)
// selects min(GOMAXPROCS, NumCPU) — as many workers as the runtime will
// actually schedule in parallel.
func (o Options) kernelWorkers() int {
	t := o.KernelThreads
	if t <= 0 {
		t = runtime.GOMAXPROCS(0)
		if n := runtime.NumCPU(); n < t {
			t = n
		}
	}
	return t
}

// kernelPool is the per-call worker state of the parallel kernel: one pooled
// hash set and one private counter block per worker, reused across all
// shifts of a count. Every set is sized from the same capacity hint, so the
// power-of-two mask — and with it the direct-mode decision and the probe
// stream of every row — is identical no matter which worker runs the row.
// The counters are summed in worker order after each step's barrier, which
// keeps every Result counter exact at any thread count (each field is a pure
// sum over (row, task) pairs).
type kernelPool struct {
	sets    []*hashset.Set
	kcs     []kernelCounters
	allRows []int32 // lazily materialized 0..rows-1 for NoDoublySparse

	// Observability handles (nil-safe no-ops when metrics are disabled):
	// steps counts compute steps, imbalance records max/mean LPT bucket
	// load per parallel step — the per-step worker skew Table 3 reports
	// between ranks, one level down.
	steps     *obs.Counter
	imbalance *obs.Histogram
}

// newKernelPool builds a pool of `workers` kernel workers whose sets share
// one capacity hint (see kernelCapHint / summaCapHint). The pool carries the
// count's metric handles, resolved once per count from opt.Metrics.
func newKernelPool(capHint, workers int, opt Options) *kernelPool {
	if workers < 1 {
		workers = 1
	}
	kp := &kernelPool{
		sets: make([]*hashset.Set, workers),
		kcs:  make([]kernelCounters, workers),
		steps: opt.Metrics.Counter("tc_kernel_steps_total",
			"Compute steps executed by the counting kernel (all ranks)."),
		imbalance: opt.Metrics.Histogram("tc_kernel_step_imbalance",
			"Per-step LPT bucket load imbalance (max/mean over busy workers).",
			obs.RatioBuckets),
	}
	for i := range kp.sets {
		kp.sets[i] = hashset.New(capHint)
	}
	return kp
}

// run executes one compute step's kernel over the current operand blocks,
// fanning the task rows across the pool's workers. Must be called from
// inside a Compute section; the goroutines it spawns share that section's
// slot and wall-clock measurement.
func (kp *kernelPool) run(task *csrBlock, taskRows []int32, u *csrBlock, l *cscBlock, opt Options) {
	kp.steps.Inc()
	if len(kp.sets) == 1 {
		runKernel(task, taskRows, u, l, kp.sets[0], opt, &kp.kcs[0])
		return
	}
	rows := taskRows
	if opt.NoDoublySparse {
		if kp.allRows == nil {
			kp.allRows = make([]int32, task.rows)
			for a := range kp.allRows {
				kp.allRows[a] = int32(a)
			}
		}
		rows = kp.allRows
	}
	buckets, loads := partitionLPT(rows, task, u, l, len(kp.sets))
	kp.observeImbalance(loads)
	var wg sync.WaitGroup
	for w := range kp.sets {
		if len(buckets[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, a := range buckets[w] {
				kernelRow(a, task, u, l, kp.sets[w], opt, &kp.kcs[w])
			}
		}(w)
	}
	wg.Wait()
}

// observeImbalance records max/mean over the busy (non-zero-load) LPT
// buckets of one step. Steps with at most one busy bucket carry no balance
// information and are skipped.
func (kp *kernelPool) observeImbalance(loads []int64) {
	if kp.imbalance == nil {
		return
	}
	var max, sum int64
	busy := 0
	for _, l := range loads {
		if l == 0 {
			continue
		}
		busy++
		sum += l
		if l > max {
			max = l
		}
	}
	if busy < 2 {
		return
	}
	kp.imbalance.Observe(float64(max) * float64(busy) / float64(sum))
}

// total sums the workers' private counters, deterministically in worker
// order.
func (kp *kernelPool) total() kernelCounters {
	var kc kernelCounters
	for i := range kp.kcs {
		kc.add(kp.kcs[i])
	}
	return kc
}

// partitionLPT splits one step's task rows into one bucket per worker,
// balanced by the A⁺-weight Σ over the row's tasks of min(|U-row|, |L-col|)
// — a size proxy for the row's intersection work.
// Rows are placed longest-processing-time first onto the least-loaded
// bucket; ties break deterministically (heavier weight, then lower row id),
// though correctness never depends on placement: every counter is a pure sum
// over pairs. Rows with zero weight this shift (empty U row, or every task
// column empty) are dropped — they contribute nothing. The per-bucket loads
// are returned alongside the buckets so the pool can report worker skew.
func partitionLPT(rows []int32, task *csrBlock, u *csrBlock, l *cscBlock, workers int) ([][]int32, []int64) {
	type weightedRow struct {
		a int32
		w int64
	}
	weighted := make([]weightedRow, 0, len(rows))
	for _, a := range rows {
		tcols := task.row(a)
		if len(tcols) == 0 {
			continue
		}
		urow := u.row(a)
		if len(urow) == 0 {
			continue
		}
		var wt int64
		for _, b := range tcols {
			if lc := len(l.col(b)); lc > 0 {
				if lc < len(urow) {
					wt += int64(lc)
				} else {
					wt += int64(len(urow))
				}
			}
		}
		if wt == 0 {
			continue
		}
		weighted = append(weighted, weightedRow{a, wt})
	}
	sort.Slice(weighted, func(i, j int) bool {
		if weighted[i].w != weighted[j].w {
			return weighted[i].w > weighted[j].w
		}
		return weighted[i].a < weighted[j].a
	})
	buckets := make([][]int32, workers)
	loads := make([]int64, workers)
	for _, r := range weighted {
		best := 0
		for w := 1; w < workers; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		buckets[best] = append(buckets[best], r.a)
		loads[best] += r.w
	}
	return buckets, loads
}

// kernelCapHint sizes the intersection hash maps of the Cannon path. Keys
// are local k indices (< ceil(n/q)); the capacity is the smaller of the full
// local range (which makes every row eligible for collision-free direct
// hashing) and 8× the globally largest U-block row (which bounds the probing
// load factor at 1/8 when the range is too large to materialize).
//
// The hint is computed once per count from the resident maxURow, and every
// pooled per-worker set is built from this same hint — the mask must agree
// across workers for the probe stream to be thread-count invariant. The
// bound survives elastic growth: GrowTo only appends empty rows (no row gets
// longer) and Splice re-allreduces maxURow after every mutation, so the
// resident value is always ≥ the actual longest row
// (Prepared.ValidateKernelSizing asserts this).
func kernelCapHint(blk *blocks) int {
	localRange := int((blk.n + int64(blk.q) - 1) / int64(blk.q))
	byRow := int(8 * blk.maxURow)
	capHint := localRange
	if byRow < capHint {
		capHint = byRow
	}
	if capHint < 64 {
		capHint = 64
	}
	return capHint
}
