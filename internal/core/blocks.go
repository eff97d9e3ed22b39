package core

import (
	"fmt"
	"slices"

	"tc2d/internal/graph"
	"tc2d/internal/mpi"
)

// csrBlock is a sparse block stored by rows with int32 local indices: row a
// holds the sorted local column values adj[xadj[a]:xadj[a+1]]. It represents
// either a U block (rows j → keys k) or a task block (rows a → cols b).
type csrBlock struct {
	rows int32
	xadj []int32
	adj  []int32
}

func (b *csrBlock) row(a int32) []int32 { return b.adj[b.xadj[a]:b.xadj[a+1]] }

func (b *csrBlock) nnz() int64 { return int64(len(b.adj)) }

// nonEmptyRows returns the doubly-sparse row index (the DCSR-inspired list
// of §5.2): local rows with at least one entry.
func (b *csrBlock) nonEmptyRows() []int32 {
	var list []int32
	for a := int32(0); a < b.rows; a++ {
		if b.xadj[a+1] > b.xadj[a] {
			list = append(list, a)
		}
	}
	return list
}

// cscBlock is a sparse block stored by columns: column b holds sorted local
// row values. It represents an L block (cols i → keys k).
type cscBlock struct {
	cols int32
	xadj []int32
	adj  []int32
}

func (b *cscBlock) col(i int32) []int32 { return b.adj[b.xadj[i]:b.xadj[i+1]] }

// transpose returns the block in CSR form with the given number of rows
// (row → sorted columns). Walking the columns in ascending order keeps every
// row sorted without a sort.
func (b *cscBlock) transpose(rows int32) csrBlock {
	t := csrBlock{rows: rows, xadj: make([]int32, rows+1), adj: make([]int32, len(b.adj))}
	for _, r := range b.adj {
		t.xadj[r+1]++
	}
	for a := int32(0); a < rows; a++ {
		t.xadj[a+1] += t.xadj[a]
	}
	next := slices.Clone(t.xadj[:rows])
	for i := int32(0); i < b.cols; i++ {
		for _, r := range b.col(i) {
			t.adj[next[r]] = i
			next[r]++
		}
	}
	return t
}

// buildCSR constructs a csrBlock with the given number of rows from (row,
// value) pairs, which it consumes (graph.RowsFromPairs); each row's values
// are sorted ascending.
func buildCSR(rows int32, pairs [][]int32) csrBlock {
	xadj, adj := graph.RowsFromPairs[int32](rows, pairs)
	return csrBlock{rows: rows, xadj: xadj, adj: adj}
}

// Block blob layout (§5.2 "reducing overheads associated with
// communication"): one int32 array reinterpreted as bytes —
//
//	[0] magic, [1] kind (0=U CSR, 1=L CSC), [2] dim (rows or cols),
//	[3] nnz, [4:4+dim+1] xadj, [5+dim:] adj
const (
	blobMagic = int32(0x7C2D)
	kindU     = int32(0)
	kindL     = int32(1)
)

func encodeCSRBlob(kind int32, dim int32, xadj, adj []int32) []byte {
	blob := make([]int32, 0, 4+len(xadj)+len(adj))
	blob = append(blob, blobMagic, kind, dim, int32(len(adj)))
	blob = append(blob, xadj...)
	blob = append(blob, adj...)
	return mpi.Int32sToBytes(blob)
}

func decodeCSRBlob(b []byte, wantKind int32) (dim int32, xadj, adj []int32) {
	blob := mpi.BytesToInt32s(b)
	if len(blob) < 4 || blob[0] != blobMagic {
		panic("core: corrupt block blob")
	}
	if blob[1] != wantKind {
		panic(fmt.Sprintf("core: block blob kind %d, want %d", blob[1], wantKind))
	}
	dim = blob[2]
	nnz := blob[3]
	xadj = blob[4 : 4+dim+1]
	adj = blob[4+dim+1 : 4+dim+1+nnz]
	return dim, xadj, adj
}

// Base tags for the naive (non-blob) block transfer: header, xadj and adj
// travel as three separate messages per hop (U uses tagHdr..tagHdr+2, L uses
// tagHdr+10..tagHdr+12).
const tagHdr = 25

// sendBlockNaive ships a block as three messages with element-wise encoding —
// the baseline the single-blob optimization is measured against (§5.2). The
// encode loop runs as charged compute, mirroring MPI pack/unpack cost.
func sendBlockNaive(c *mpi.Comm, dst int, baseTag int, kind, dim int32, xadj, adj []int32) {
	var hdr, xb, ab []byte
	c.Compute(func() {
		hdr = encodeInt32sSlow([]int32{blobMagic, kind, dim, int32(len(adj))})
		xb = encodeInt32sSlow(xadj)
		ab = encodeInt32sSlow(adj)
	})
	c.SendOwn(dst, baseTag+0, hdr)
	c.SendOwn(dst, baseTag+1, xb)
	c.SendOwn(dst, baseTag+2, ab)
}

func recvBlockNaive(c *mpi.Comm, src int, baseTag int, wantKind int32) (dim int32, xadj, adj []int32) {
	hb := c.Recv(src, baseTag+0)
	xb := c.Recv(src, baseTag+1)
	ab := c.Recv(src, baseTag+2)
	c.Compute(func() {
		hdr := decodeInt32sSlow(hb)
		if hdr[0] != blobMagic || hdr[1] != wantKind {
			panic("core: corrupt naive block")
		}
		dim = hdr[2]
		xadj = decodeInt32sSlow(xb)
		adj = decodeInt32sSlow(ab)
	})
	return dim, xadj, adj
}

func encodeInt32sSlow(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		u := uint32(x)
		b[4*i] = byte(u)
		b[4*i+1] = byte(u >> 8)
		b[4*i+2] = byte(u >> 16)
		b[4*i+3] = byte(u >> 24)
	}
	return b
}

func decodeInt32sSlow(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24)
	}
	return v
}
