package tc2d

// Multi-process deployment, worker side.
//
// RunWorker turns the calling process into a rank host: it dials a
// coordinator (NewClusterCoordinator / tcd -coordinator), claims a span of
// ranks, builds the TCP mesh to its peer workers, and then executes the
// coordinator's epochs — build, count, apply, rebuild, snapshot encode,
// restore — against per-rank resident core.Prepared state. The cmd/tcworker
// daemon is a thin flag wrapper around this function.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/obs"
	"tc2d/internal/pworld"
	"tc2d/internal/snapshot"
)

// WorkerOptions parameterizes one worker process (RunWorker).
type WorkerOptions struct {
	// Coordinator is the coordinator's worker-facing TCP address
	// (Cluster.CoordinatorAddr, or the tcd -coordinator-listen flag).
	// Required.
	Coordinator string
	// Ranks is how many ranks this process hosts (default 1). A worker's
	// ranks always form a contiguous span of the global rank space.
	Ranks int
	// Listen is the address this worker's peer-mesh listener binds
	// (default "127.0.0.1:0"). For multi-host deployments bind an address
	// the other workers can reach.
	Listen string
	// ComputeSlots bounds concurrently executing local ranks during
	// compute phases, as Options.ComputeSlots does in-process.
	ComputeSlots int
	// Alpha, Beta, Overhead override the LogGP virtual-time cost model,
	// as the same fields on Options do.
	Alpha, Beta, Overhead float64
	// Metrics receives this worker's kernel and transport series; expose
	// it however the host process likes. Nil means no metrics.
	Metrics *obs.Registry
	// OnReady, when non-nil, is called once with the rank span this worker
	// was assigned after the world assembles.
	OnReady func(ranks []int)
	// Logf, when non-nil, receives protocol log lines.
	Logf func(format string, args ...any)
}

// RunWorker runs one worker process attached to coordinator copt.Coordinator
// and blocks until the context is cancelled (graceful leave: the
// coordinator frees this worker's ranks immediately instead of waiting out
// a heartbeat timeout) or the coordinator shuts down; both return nil. It
// returns an error for protocol failures — unreachable coordinator,
// format-version mismatch, no free ranks.
//
// A worker holds no durable state: on restart it rejoins empty and the
// coordinator replays the snapshot chain and WAL tail to it. One process
// may host several ranks; several RunWorker calls may share a process (the
// in-process differential tests do exactly that).
func RunWorker(ctx context.Context, opt WorkerOptions) error {
	if opt.Coordinator == "" {
		return errors.New("tc2d: WorkerOptions.Coordinator is required")
	}
	ws := &workerState{
		prep:    make(map[int]*core.Prepared),
		metrics: opt.Metrics,
	}
	mcfg := Options{
		ComputeSlots: opt.ComputeSlots,
		Alpha:        opt.Alpha,
		Beta:         opt.Beta,
		Overhead:     opt.Overhead,
		Metrics:      opt.Metrics,
	}.mpiConfig()
	return pworld.RunWorker(ctx, pworld.WorkerConfig{
		Coordinator: opt.Coordinator,
		Ranks:       opt.Ranks,
		Listen:      opt.Listen,
		Format:      snapshot.FormatVersion,
		MPI:         mcfg,
		Dispatch:    ws.dispatch,
		OnReady:     opt.OnReady,
		Logf:        opt.Logf,
	})
}

// workerState is the rank-resident state of one worker process: the
// Prepared structures for every locally hosted rank, keyed by global rank.
// Epoch goroutines for different local ranks run concurrently, so the map
// is lock-guarded; a given rank's entry is only ever touched by that rank's
// epoch goroutine.
type workerState struct {
	mu      sync.RWMutex
	prep    map[int]*core.Prepared
	metrics *obs.Registry
}

func (ws *workerState) get(rank int) (*core.Prepared, error) {
	ws.mu.RLock()
	pr := ws.prep[rank]
	ws.mu.RUnlock()
	if pr == nil {
		return nil, fmt.Errorf("tc2d: rank %d holds no resident state (worker joined after build; awaiting restore)", rank)
	}
	return pr, nil
}

func (ws *workerState) put(rank int, pr *core.Prepared) {
	ws.mu.Lock()
	ws.prep[rank] = pr
	ws.mu.Unlock()
}

// reply encodes an op reply; only rank 0 carries one (plus the metadata
// piggyback) unless the op says otherwise.
func (ws *workerState) reply(c *mpi.Comm, rep opReply, pr *core.Prepared) ([]byte, error) {
	if c.Rank() != 0 {
		return nil, nil
	}
	m := metaOf(pr)
	rep.Meta = &m
	return gobEncode(&rep), nil
}

// dispatch executes one epoch operation for one local rank. It mirrors the
// epoch bodies of the in-process Cluster exactly — same core/delta entry
// points in the same order — which is what makes a coordinator cluster
// bit-identical to an in-process one on the same graph and update stream.
func (ws *workerState) dispatch(c *mpi.Comm, op string, common, mine []byte) ([]byte, error) {
	switch op {
	case opBuild:
		return ws.opBuild(c, common, mine)
	case opCount:
		var k wireKernel
		if err := gobDecode(common, &k); err != nil {
			return nil, err
		}
		pr, err := ws.get(c.Rank())
		if err != nil {
			return nil, err
		}
		copt := k.coreOptions()
		copt.Metrics = ws.metrics
		res, err := core.CountPrepared(c, pr, copt)
		if err != nil {
			return nil, err
		}
		return ws.reply(c, opReply{Count: res}, pr)

	case opApply:
		batch, err := decodeBatch(common)
		if err != nil {
			return nil, err
		}
		pr, err := ws.get(c.Rank())
		if err != nil {
			return nil, err
		}
		res, err := delta.Apply(c, pr, batch)
		if err != nil {
			return nil, err
		}
		return ws.reply(c, opReply{Apply: res}, pr)

	case opRebuildInc:
		pr, err := ws.get(c.Rank())
		if err != nil {
			return nil, err
		}
		st, err := delta.RebuildIncremental(c, pr)
		if err != nil {
			return nil, err
		}
		return ws.reply(c, opReply{Stats: st}, pr)

	case opRebuildFull:
		var b wireBuild
		if err := gobDecode(common, &b); err != nil {
			return nil, err
		}
		pr, err := ws.get(c.Rank())
		if err != nil {
			return nil, err
		}
		np, err := delta.Rebuild(c, pr)
		if err != nil {
			return nil, err
		}
		if b.Track {
			np.EnableSnapshotTracking()
		}
		ws.put(c.Rank(), np)
		return ws.reply(c, opReply{}, np)

	case opEncodeSnap:
		var s wireSnap
		if err := gobDecode(common, &s); err != nil {
			return nil, err
		}
		pr, err := ws.get(c.Rank())
		if err != nil {
			return nil, err
		}
		var blob []byte
		if s.Delta {
			blob = core.EncodePreparedDelta(pr)
		} else {
			blob = core.EncodePrepared(pr)
		}
		return gobEncode(&opReply{Blob: blob}), nil // every rank replies

	case opSnapDone:
		pr, err := ws.get(c.Rank())
		if err != nil {
			return nil, err
		}
		pr.ResetSnapshotDirty()
		return nil, nil

	case opRestore:
		return ws.opRestore(c, common, mine)
	}
	return nil, fmt.Errorf("tc2d: unknown epoch operation %q", op)
}

// opBuild ships the graph in and runs the preprocessing pipeline. For
// scatter builds only rank 0's payload carries the graph; RMAT builds carry
// no graph at all — every rank generates its slice of the edge stream.
func (ws *workerState) opBuild(c *mpi.Comm, common, mine []byte) ([]byte, error) {
	var b wireBuild
	if err := gobDecode(common, &b); err != nil {
		return nil, err
	}
	var in dgraph.Input
	if b.RMAT != nil {
		in = dgraph.RMATInput{
			Params:     b.RMAT.Params,
			Scale:      b.RMAT.Scale,
			EdgeFactor: b.RMAT.EdgeFactor,
			Seed:       b.RMAT.Seed,
		}
	} else {
		var g *Graph
		if len(mine) > 0 {
			g = new(Graph)
			if err := gobDecode(mine, g); err != nil {
				return nil, err
			}
		}
		in = dgraph.ScatterInput{Root: 0, Graph: g}
	}
	d, err := in.Build(c)
	if err != nil {
		return nil, err
	}
	copt := b.Kernel.coreOptions()
	copt.Metrics = ws.metrics
	var pr *core.Prepared
	if b.SUMMA {
		pr, err = core.PrepareSUMMA(c, d, copt)
	} else {
		pr, err = core.Prepare(c, d, copt)
	}
	if err != nil {
		return nil, err
	}
	pr.SetKernelConfig(b.KThreads)
	if b.Track {
		pr.EnableSnapshotTracking()
	}
	ws.put(c.Rank(), pr)
	return ws.reply(c, opReply{}, pr)
}

// opRestore installs one snapshot-chain member: a full base (replacing any
// resident state) or a delta applied onto the base restored by the previous
// opRestore epoch. The final chain member finishes the standing kernel
// config and dirty tracking, mirroring the in-process decodeChain.
func (ws *workerState) opRestore(c *mpi.Comm, common, mine []byte) ([]byte, error) {
	var r wireRestore
	if err := gobDecode(common, &r); err != nil {
		return nil, err
	}
	var pr *core.Prepared
	if r.Delta {
		var err error
		pr, err = ws.get(c.Rank())
		if err != nil {
			return nil, err
		}
		if err := core.ApplyPreparedDelta(pr, mine, c.Rank(), r.Ranks); err != nil {
			return nil, err
		}
	} else {
		var err error
		pr, err = core.DecodePrepared(mine, c.Rank(), r.Ranks)
		if err != nil {
			return nil, err
		}
		ws.put(c.Rank(), pr)
	}
	if !r.Final {
		return nil, nil
	}
	if r.Track {
		pr.EnableSnapshotTracking()
	}
	pr.SetKernelConfig(r.KThreads)
	return ws.reply(c, opReply{}, pr)
}
