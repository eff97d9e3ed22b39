package main

import (
	"strconv"

	"tc2d"
)

// writeGen generates the serve-write update stream from the workload seed
// and keeps the exact edge set the stream leaves behind, which is what the
// oracle counts at the end.
//
// Each batch inserts RMAT-drawn pairs (a stream seeded apart from the
// frozen graph) that are absent from the graph, and deletes edges the
// stream itself inserted at least DeleteLag batches earlier, oldest first,
// so once the first deletes are due the edge count stays level. Every
// mutation is therefore effective, and the acknowledged inserted and
// deleted counts of each batch are known in advance. The lag, and the rule
// that a pair deleted within the last DeleteLag batches is not re-inserted,
// keep the two operations on one edge far enough apart that the order in
// which the server receives two concurrently sent batches cannot change
// either answer.
type writeGen struct {
	cfg     config
	scale   int
	n       int32
	seed    uint64
	drawn   int64 // RMAT pairs drawn so far
	present map[uint64]struct{}
	fifo    []stamped      // edges the stream inserted and still holds, oldest first
	deleted map[uint64]int // pair -> batch that deleted it
	batch   int
}

type stamped struct {
	key   uint64
	batch int
}

// genBatch is one generated update batch.
type genBatch struct {
	ups      []tc2d.EdgeUpdate
	body     []byte // POST /update JSON
	ins, del int64  // expected acknowledged counts
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func keyEdge(k uint64) (int32, int32) { return int32(k >> 32), int32(uint32(k)) }

func newWriteGen(base *tc2d.Graph, cfg config, scale int, seed uint64) *writeGen {
	g := &writeGen{
		cfg: cfg, scale: scale, n: base.N, seed: cfg.InsertStream ^ seed,
		present: make(map[uint64]struct{}, len(base.Adj)/2+1<<16),
		deleted: map[uint64]int{},
	}
	for v := int32(0); v < base.N; v++ {
		for _, u := range base.NeighborsAbove(v) {
			g.present[edgeKey(v, u)] = struct{}{}
		}
	}
	return g
}

// next generates the next batch of the stream.
func (g *writeGen) next() genBatch {
	k := g.batch
	g.batch++
	var b genBatch
	half := g.cfg.BatchSize / 2
	for len(g.fifo) > 0 && int(b.del) < half && g.fifo[0].batch <= k-g.cfg.DeleteLag {
		key := g.fifo[0].key
		g.fifo = g.fifo[1:]
		delete(g.present, key)
		g.deleted[key] = k
		u, v := keyEdge(key)
		b.ups = append(b.ups, tc2d.EdgeUpdate{U: u, V: v, Op: tc2d.UpdateDelete})
		b.del++
	}
	for int(b.ins)+int(b.del) < g.cfg.BatchSize {
		e := tc2d.G500.Edge(g.scale, g.seed, g.drawn)
		g.drawn++
		if e.U == e.V || e.U >= g.n || e.V >= g.n {
			continue
		}
		key := edgeKey(e.U, e.V)
		if _, ok := g.present[key]; ok {
			continue
		}
		if at, ok := g.deleted[key]; ok && at > k-g.cfg.DeleteLag {
			continue
		}
		g.present[key] = struct{}{}
		g.fifo = append(g.fifo, stamped{key: key, batch: k})
		u, v := keyEdge(key)
		b.ups = append(b.ups, tc2d.EdgeUpdate{U: u, V: v, Op: tc2d.UpdateInsert})
		b.ins++
	}
	b.body = encodeUpdates(b.ups)
	return b
}

// graph returns the edge set the stream has produced so far.
func (g *writeGen) graph() (*tc2d.Graph, error) {
	edges := make([]tc2d.Edge, 0, len(g.present))
	for key := range g.present {
		u, v := keyEdge(key)
		edges = append(edges, tc2d.Edge{U: u, V: v})
	}
	return tc2d.NewGraph(g.n, edges)
}

func encodeUpdates(ups []tc2d.EdgeUpdate) []byte {
	b := make([]byte, 0, 16+36*len(ups))
	b = append(b, `{"updates":[`...)
	for i, u := range ups {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"u":`...)
		b = strconv.AppendInt(b, int64(u.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(u.V), 10)
		if u.Op == tc2d.UpdateDelete {
			b = append(b, `,"op":"delete"}`...)
		} else {
			b = append(b, `,"op":"insert"}`...)
		}
	}
	return append(b, "]}"...)
}
