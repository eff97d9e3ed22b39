package core

import (
	"slices"

	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
)

// Preprocessing (§5.3 of the paper), three distributed steps:
//
//   (i)  initial cyclic redistribution of the 1D-distributed graph with
//        relabeling, to break up localized dense regions;
//   (ii) distributed counting sort that relabels vertices in non-decreasing
//        degree order, with an all-to-all exchange to resolve the new labels
//        of remote neighbours;
//   (iii)+(iv) 2D cyclic redistribution that forms, on every grid rank, the
//        upper-triangular block U_{x,y} (CSR), the lower-triangular block
//        L_{x,y} (CSC) and the task block (CSR), in local indices.

// numWithResidue counts integers in [0,n) congruent to r mod q.
func numWithResidue(n int64, q, r int) int32 {
	if int64(r) >= n {
		return 0
	}
	return int32((n - int64(r) + int64(q) - 1) / int64(q))
}

// CyclicOffsets returns the per-rank start offsets of the cyclic relabeling:
// offset[r] is the first new id owned by rank r, offset[p] == n. Rank
// ownership of the new ids is identical to BlockRange because the first
// n mod p ranks receive one extra vertex.
func CyclicOffsets(n int64, p int) []int64 {
	offset := make([]int64, p+1)
	for r := 0; r < p; r++ {
		offset[r+1] = offset[r] + int64(numWithResidue(n, p, r))
	}
	return offset
}

// CyclicID maps an original vertex id to its id after the cyclic
// redistribution (step (i) of preprocessing): v moves to rank v mod p and
// becomes offset[v mod p] + v div p. offset must come from CyclicOffsets
// with the same n and p. The dynamic-update subsystem uses this closed form
// to route batches given in original ids without any retained per-vertex
// map.
func CyclicID(offset []int64, v int32, p int) int32 {
	return int32(offset[int(v)%p] + int64(v)/int64(p))
}

// cyclicRedistribute implements step (i): vertex v moves to rank v mod p and
// is relabeled to CyclicID(v), which makes every rank's ownership a
// contiguous range again.
func cyclicRedistribute(c *mpi.Comm, in *dgraph.Dist1D, ops *int64) *dgraph.Dist1D {
	p := c.Size()
	n := in.N
	offset := CyclicOffsets(n, p)
	newid := func(v int32) int32 { return CyclicID(offset, v, p) }

	sendbuf := make([][]int32, p)
	c.Compute(func() {
		for v := in.VBeg; v < in.VEnd; v++ {
			dst := int(v) % p
			row := in.Neighbors(v)
			buf := sendbuf[dst]
			buf = append(buf, newid(v), int32(len(row)))
			for _, u := range row {
				buf = append(buf, newid(u))
			}
			sendbuf[dst] = buf
			*ops += int64(len(row)) + 1
		}
	})
	got := c.AlltoallvInt32(sendbuf)

	out := &dgraph.Dist1D{N: n, VBeg: int32(offset[c.Rank()]), VEnd: int32(offset[c.Rank()+1])}
	c.Compute(func() {
		nloc := int(out.VEnd - out.VBeg)
		deg := make([]int64, nloc+1)
		for _, part := range got {
			i := 0
			for i < len(part) {
				lv := part[i] - out.VBeg
				d := part[i+1]
				deg[lv+1] = int64(d)
				i += 2 + int(d)
			}
		}
		xadj := make([]int64, nloc+1)
		for v := 0; v < nloc; v++ {
			xadj[v+1] = xadj[v] + deg[v+1]
		}
		adj := make([]int32, xadj[nloc])
		for _, part := range got {
			i := 0
			for i < len(part) {
				lv := part[i] - out.VBeg
				d := int(part[i+1])
				copy(adj[xadj[lv]:xadj[lv]+int64(d)], part[i+2:i+2+d])
				i += 2 + d
				*ops += int64(d)
			}
		}
		out.Xadj = xadj
		out.Adj = adj
	})
	mpi.RecycleInt32s(got)
	return out
}

// relabeled holds the graph after the degree relabeling of step (ii): the
// same vertices stay on the same ranks, but every id (owned and neighbour)
// is replaced by its position in the global non-decreasing-degree order.
type relabeled struct {
	n      int64
	labels []int32 // new label of local vertex lv
	xadj   []int64
	adj    []int32 // neighbour lists in new labels
}

// degreeRelabel implements step (ii) via the shared distributed counting
// sort (dgraph.DegreeLabels): ties within a degree are broken by current id,
// making the permutation deterministic. Vertices stay on their ranks — only
// the labels change — because step (iii) redistributes by the 2D pattern
// anyway.
func degreeRelabel(c *mpi.Comm, in *dgraph.Dist1D, ops *int64) *relabeled {
	labels, newAdj := dgraph.DegreeLabels(c, in, ops)
	return &relabeled{n: in.N, labels: labels, xadj: in.Xadj, adj: newAdj}
}

// blocks is the per-rank state after the 2D cyclic redistribution: the task
// block (CSR, rows residue x → cols residue y), the owned U block (CSR) and
// the owned L block (CSC), all in local indices (global id div q).
type blocks struct {
	q, x, y  int
	n        int64
	nRowsX   int32 // locals with residue x (row dimension of task and U)
	nColsY   int32 // locals with residue y (col dimension of task and L)
	task     csrBlock
	taskRows []int32 // doubly-sparse non-empty row list
	ublk     csrBlock
	lblk     cscBlock
	// maxURow is the global maximum U-block row length (allreduced), used
	// to size the intersection hash map identically on all ranks.
	maxURow int64
}

// build2D implements steps (iii)+(iv): every directed pair (w_v → w_u) of
// the relabeled graph is routed to grid rank (w_v mod q, w_u mod q); pairs
// with w_u > w_v form U entries, pairs with w_u < w_v form L entries. The
// task block is the L pattern for ⟨j,i,k⟩ and the U pattern for ⟨i,j,k⟩.
func build2D(c *mpi.Comm, grid *mpi.Grid, rl *relabeled, enum Enumeration, ops *int64) *blocks {
	q := grid.Q()
	p := c.Size()

	sendbuf := make([][]int32, p)
	c.Compute(func() {
		nloc := len(rl.labels)
		for lv := 0; lv < nloc; lv++ {
			wv := rl.labels[lv]
			row := rl.adj[rl.xadj[lv]:rl.xadj[lv+1]]
			for _, wu := range row {
				dst := int(wv)%q*q + int(wu)%q
				sendbuf[dst] = append(sendbuf[dst], wv, wu)
				*ops++
			}
		}
	})
	got := c.AlltoallvInt32(sendbuf)

	blk := &blocks{
		q: q, x: grid.Row(), y: grid.Col(), n: rl.n,
		nRowsX: numWithResidue(rl.n, q, grid.Row()),
		nColsY: numWithResidue(rl.n, q, grid.Col()),
	}
	c.Compute(func() {
		qi := int32(q)
		// Partition every received part in place: U entries (wu > wv) move
		// to the front as local (row, col) pairs, L entries (row wv=j, col
		// wu=i) to the back as (col, row) pairs for the CSC. The builder
		// then consumes both halves of each part directly; got lets go of
		// the parts so they are freed once both blocks are built.
		uParts := make([][]int32, len(got))
		lParts := make([][]int32, len(got))
		for s, part := range got {
			i, j := 0, len(part)
			for i < j {
				wv, wu := part[i], part[i+1]
				if wu > wv {
					part[i], part[i+1] = wv/qi, wu/qi
					i += 2
				} else {
					j -= 2
					part[i], part[i+1] = part[j], part[j+1]
					part[j], part[j+1] = wu/qi, wv/qi
				}
				*ops++
			}
			uParts[s], lParts[s] = part[:i], part[i:]
		}
		clear(got)
		blk.ublk = buildCSR(blk.nRowsX, uParts)
		lcsr := buildCSR(blk.nColsY, lParts)
		blk.lblk = cscBlock{cols: lcsr.rows, xadj: lcsr.xadj, adj: lcsr.adj}
		if enum == EnumIJK {
			blk.task = csrBlock{rows: blk.nRowsX, xadj: slices.Clone(blk.ublk.xadj), adj: slices.Clone(blk.ublk.adj)}
		} else {
			blk.task = blk.lblk.transpose(blk.nRowsX)
		}
		blk.taskRows = blk.task.nonEmptyRows()
	})

	var maxRow int64
	c.Compute(func() {
		for a := int32(0); a < blk.ublk.rows; a++ {
			if l := int64(blk.ublk.xadj[a+1] - blk.ublk.xadj[a]); l > maxRow {
				maxRow = l
			}
		}
	})
	blk.maxURow = c.AllreduceInt64(maxRow, mpi.OpMax)
	return blk
}
