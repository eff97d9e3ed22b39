package core

import (
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// CountSUMMA is the rectangular-grid extension the paper's conclusion
// proposes: the same 2D cyclic task decomposition, scheduled with SUMMA's
// broadcast pattern instead of Cannon's shifts, so the processor count only
// needs to factor as qr × qc rather than being a perfect square (any p
// works; primes degenerate to 1 × p).
//
// The inner dimension k is processed in lcm(qr, qc) residue classes. At
// step t, the rank in grid column t mod qc owning the U entries with
// k ≡ t broadcasts that bucket along its grid row, the rank in grid row
// t mod qr owning the matching L entries broadcasts along its column, and
// every rank runs the map-based kernel over its task block. Buckets store
// k div lcm as the intersection key, so both operands agree on local
// indices without further translation.
func CountSUMMA(c *mpi.Comm, in *dgraph.Dist1D, opt Options) (*Result, error) {
	qr, qc := mpi.FactorGrid(c.Size())
	return CountSUMMAGrid(c, in, qr, qc, opt)
}

// CountSUMMAGrid is CountSUMMA with an explicit qr × qc grid shape. Like
// Count, it composes PrepareSUMMAGrid with CountPrepared; query-many callers
// should hold the Prepared state and call CountPrepared directly.
func CountSUMMAGrid(c *mpi.Comm, in *dgraph.Dist1D, qr, qc int, opt Options) (*Result, error) {
	prep, err := PrepareSUMMAGrid(c, in, qr, qc, opt)
	if err != nil {
		return nil, err
	}
	res, err := CountPrepared(c, prep, opt)
	if err != nil {
		return nil, err
	}
	mergePrepare(res, prep)
	return res, nil
}

func lcm(a, b int) int {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}

// summaBlocks is the per-rank state for the SUMMA schedule: the task block
// plus the k-residue-class buckets of the owned U and L entries this rank
// will broadcast.
type summaBlocks struct {
	nRows int32 // locals with row residue (task/U row dimension)
	nCols int32 // locals with col residue (task/L col dimension)
	task  csrBlock
	rows  []int32 // doubly-sparse non-empty task rows
	// uBucket[t] exists for t%qc == mycol: CSR rows j/qr → keys k/L,
	// covering the owned U entries with k ≡ t (mod L).
	uBucket map[int]csrBlock
	// lBucket[t] exists for t%qr == myrow: CSC cols i/qc → keys k/L.
	lBucket map[int]cscBlock
	maxURow int64
}

// buildSUMMA routes the relabeled graph onto the rectangular grid: U entry
// (j, k) → rank (j mod qr, k mod qc); L entry (j, i) → rank
// (j mod qr, i mod qc) both as a task and, viewed as operand row k=j, into
// the broadcast bucket of class j mod L on the same rank... which is only
// correct because the operand's row residue class mod qr equals the owner's
// grid row. Buckets pre-store k div L keys so broadcast receivers can use
// them directly.
func buildSUMMA(c *mpi.Comm, grid *mpi.RectGrid, rl *relabeled, L int, enum Enumeration, ops *int64) *summaBlocks {
	qr, qc := grid.Rows(), grid.Cols()
	p := c.Size()

	// Route both triangular parts: the destination of a directed pair
	// (wv → wu) depends on its role. U entries (wu > wv): (wv%qr, wu%qc).
	// L entries (wu < wv): (wv%qr, wu%qc) — task position and operand
	// bucket coincide (see doc comment).
	sendbuf := make([][]int32, p)
	c.Compute(func() {
		nloc := len(rl.labels)
		for lv := 0; lv < nloc; lv++ {
			wv := rl.labels[lv]
			row := rl.adj[rl.xadj[lv]:rl.xadj[lv+1]]
			for _, wu := range row {
				dst := grid.RankAt(int(wv)%qr, int(wu)%qc)
				sendbuf[dst] = append(sendbuf[dst], wv, wu)
				*ops++
			}
		}
	})
	got := c.AlltoallvInt32(sendbuf)

	blk := &summaBlocks{
		nRows:   numWithResidue(rl.n, qr, grid.Row()),
		nCols:   numWithResidue(rl.n, qc, grid.Col()),
		uBucket: make(map[int]csrBlock),
		lBucket: make(map[int]cscBlock),
	}
	var maxRow int64
	c.Compute(func() {
		qri, qci, Li := int32(qr), int32(qc), int32(L)
		uPairs := make(map[int][]int32) // class t → (row j/qr, key k/L)
		lPairs := make(map[int][]int32) // class t → (col i/qc, key k/L)
		var taskPairs []int32
		for _, part := range got {
			for i := 0; i < len(part); i += 2 {
				wv, wu := part[i], part[i+1]
				if wu > wv {
					// U entry: row j=wv, inner k=wu.
					t := int(wu % Li)
					uPairs[t] = append(uPairs[t], wv/qri, wu/Li)
					if enum == EnumIJK {
						taskPairs = append(taskPairs, wv/qri, wu/qci)
					}
				} else {
					// L entry: task (j=wv, i=wu); operand row k=wv.
					t := int(wv % Li)
					lPairs[t] = append(lPairs[t], wu/qci, wv/Li)
					if enum == EnumJIK {
						taskPairs = append(taskPairs, wv/qri, wu/qci)
					}
				}
				*ops++
			}
		}
		mpi.RecycleInt32s(got)
		for t, pairs := range uPairs {
			b := buildCSR(blk.nRows, [][]int32{pairs})
			blk.uBucket[t] = b
			for a := int32(0); a < b.rows; a++ {
				if l := int64(b.xadj[a+1] - b.xadj[a]); l > maxRow {
					maxRow = l
				}
			}
		}
		for t, pairs := range lPairs {
			b := buildCSR(blk.nCols, [][]int32{pairs})
			blk.lBucket[t] = cscBlock{cols: b.rows, xadj: b.xadj, adj: b.adj}
		}
		blk.task = buildCSR(blk.nRows, [][]int32{taskPairs})
		blk.rows = blk.task.nonEmptyRows()
	})
	blk.maxURow = c.AllreduceInt64(maxRow, mpi.OpMax)

	// Sanity: buckets must only exist for classes this rank broadcasts.
	for t := range blk.uBucket {
		if t%qc != grid.Col() {
			panic("core: summa U bucket landed on wrong column")
		}
	}
	for t := range blk.lBucket {
		if t%qr != grid.Row() {
			panic("core: summa L bucket landed on wrong row")
		}
	}
	return blk
}

// summaCount runs the lcm(qr,qc) broadcast-and-multiply steps.
func summaCount(c *mpi.Comm, grid *mpi.RectGrid, blk *summaBlocks, L int, opt Options) (kernelCounters, []float64) {
	pool := newKernelPool(summaCapHint(blk), opt.kernelWorkers(), opt)
	perShift := make([]float64, 0, L)
	trace := opt.Trace // per-rank parent span; nil (no-op) when untraced

	// Deterministic step order; empty buckets still broadcast an empty
	// block so the collective stays aligned across ranks.
	for t := 0; t < L; t++ {
		uRoot := t % grid.Cols()
		lRoot := t % grid.Rows()

		bs := trace.StartChild("bcast")
		var ublob, lblob []byte
		if grid.Col() == uRoot {
			b, ok := blk.uBucket[t]
			if !ok {
				b = csrBlock{rows: blk.nRows, xadj: make([]int32, blk.nRows+1)}
			}
			c.Compute(func() { ublob = encodeCSRBlob(kindU, b.rows, b.xadj, b.adj) })
		}
		ublob = grid.BcastRow(uRoot, ublob)
		if grid.Row() == lRoot {
			b, ok := blk.lBucket[t]
			if !ok {
				b = cscBlock{cols: blk.nCols, xadj: make([]int32, blk.nCols+1)}
			}
			c.Compute(func() { lblob = encodeCSRBlob(kindL, b.cols, b.xadj, b.adj) })
		}
		lblob = grid.BcastCol(lRoot, lblob)
		bs.SetAttr("step", t)
		bs.End()

		uDim, uX, uA := decodeCSRBlob(ublob, kindU)
		lDim, lX, lA := decodeCSRBlob(lblob, kindL)
		u := csrBlock{rows: uDim, xadj: uX, adj: uA}
		l := cscBlock{cols: lDim, xadj: lX, adj: lA}
		before := c.Stats().CompTime
		ks := trace.StartChild("kernel")
		c.Compute(func() {
			pool.run(&blk.task, blk.rows, &u, &l, opt)
		})
		ks.SetAttr("step", t)
		ks.SetAttr("virtual_s", c.Stats().CompTime-before)
		ks.End()
		perShift = append(perShift, c.Stats().CompTime-before)
	}
	return pool.total(), perShift
}

// summaCapHint sizes the kernel hash sets for keys k div L, mirroring the
// Cannon path's policy (kernelCapHint): full key range when affordable
// (every row becomes direct-hash eligible), else 8× the largest U row
// (probing load ≤ 1/8). Like the Cannon hint, it is computed once per count
// and shared by every pooled per-worker set, and the maxURow bound survives
// elastic growth (see kernelCapHint).
func summaCapHint(blk *summaBlocks) int {
	localRange := int(int64(blk.nRows)) // nRows ≈ n/qr ≥ n/L: a safe range bound
	byRow := int(8 * blk.maxURow)
	capHint := localRange
	if byRow > 0 && byRow < capHint {
		capHint = byRow
	}
	if capHint < 64 {
		capHint = 64
	}
	return capHint
}
