package tc2d

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tc2d/internal/core"
	"tc2d/internal/dgraph"
	"tc2d/internal/mpi"
	"tc2d/internal/obs"
)

// ErrClosed is the sentinel returned by operations on a closed Cluster.
var ErrClosed = errors.New("tc2d: cluster is closed")

// ErrClusterClosed is the historical name of ErrClosed; both compare equal.
var ErrClusterClosed = ErrClosed

// QueryOptions configures one query against a resident Cluster. Only the
// knobs that affect the counting phase appear here; everything that shapes
// the resident state (ranks, enumeration rule, grid schedule, transport,
// cost model) is fixed at NewCluster time. The zero value runs the paper's
// fully optimized kernel.
type QueryOptions struct {
	// Optimization kill switches, as in Options.
	NoDoublySparse bool
	NoDirectHash   bool
	NoEarlyBreak   bool
	NoBlob         bool
	// TrackPerShift records per-shift kernel times in the Result.
	TrackPerShift bool
	// KernelThreads overrides the cluster's intra-rank kernel parallelism
	// for this query (0 = the cluster's Options.KernelThreads; negative
	// values are rejected by Count).
	KernelThreads int
}

// coreOptions resolves one query against the cluster's standing kernel
// defaults. The struct stays comparable: identical concurrent queries share
// one epoch through the flights map.
func (cl *Cluster) queryCoreOptions(q QueryOptions) core.Options {
	threads := q.KernelThreads
	if threads == 0 {
		threads = cl.kernelThreads
	}
	return core.Options{
		Enumeration:    cl.enum,
		NoDoublySparse: q.NoDoublySparse,
		NoDirectHash:   q.NoDirectHash,
		NoEarlyBreak:   q.NoEarlyBreak,
		NoBlob:         q.NoBlob,
		TrackPerShift:  q.TrackPerShift,
		KernelThreads:  threads,
	}
}

// ClusterInfo is a snapshot of a resident cluster. M and Wedges track
// applied updates exactly (maintained incrementally by the write path), so
// a snapshot taken after ApplyUpdates describes the mutated graph.
type ClusterInfo struct {
	// N and M are the global vertex and undirected-edge counts. N is
	// elastic: ApplyUpdates batches naming new ids, and AddVertices, grow
	// it live.
	N, M int64
	// BaseN is the vertex count at the last build; ids in [BaseN, N) form
	// the overflow region (admitted since the last build, identity
	// labels). OverflowFraction is (N-BaseN)/N — the share of the id space
	// outside the degree-ordered layout; the next rebuild folds it to 0.
	// SpaceVersion counts vertex-space layout changes (grows and folds).
	BaseN            int64
	OverflowN        int64
	OverflowFraction float64
	SpaceVersion     int64
	// Wedges is the global wedge count Σ_v d(v)·(d(v)-1)/2.
	Wedges int64
	// Ranks is the SPMD world size; Transport the message transport.
	Ranks     int
	Transport Transport
	// Queries is the number of completed Count queries; Updates the number
	// of applied update batches; Rebuilds how often staleness (or an
	// explicit Rebuild call) refreshed the resident layout.
	// IncrementalRebuilds is the subset of Rebuilds that ran the
	// churn-proportional incremental pass (only the degree-dirty labels
	// re-sorted, only their rows moved) instead of the full pipeline.
	Queries             int64
	Updates             int64
	Rebuilds            int64
	IncrementalRebuilds int64
	// Scheduler accounting. ReadEpochs counts the counting epochs run to
	// serve queries (internal epochs, like the write path's base count,
	// are excluded): concurrent identical queries share one epoch's
	// result, so Queries / ReadEpochs is the read-coalescing factor,
	// always ≥ 1 once a query has completed. WriteEpochs
	// counts write epochs; CoalescedBatches the caller batches they
	// absorbed, so CoalescedBatches / WriteEpochs is the write-coalescing
	// factor. QueueDepth is the number of ApplyUpdates callers currently
	// enqueued or in flight.
	ReadEpochs       int64
	WriteEpochs      int64
	CoalescedBatches int64
	QueueDepth       int64
	// KernelThreads is the resolved per-rank kernel worker count queries
	// and write epochs default to; MapTasks accumulates the
	// intersection-pair counts of completed count epochs.
	KernelThreads int
	MapTasks      int64
	// PreOps and PreprocessTime describe the one-time preprocessing that
	// built the resident state; CommFracPre its communication fraction.
	// Both are zero on a cluster restored by OpenCluster: a restore decodes
	// the resident blocks from the snapshot and never re-runs the pipeline.
	PreOps         int64
	PreprocessTime float64
	CommFracPre    float64
	// Persist reports the durability state (WAL sequence, snapshots,
	// replay); Persist.Enabled is false when Options.PersistDir was unset.
	Persist PersistInfo
	// Workers is the number of connected worker processes on a coordinator
	// cluster (0 on in-process clusters); Degraded reports whether such a
	// cluster is currently missing workers or mid-recovery.
	Workers  int
	Degraded bool
}

// Cluster is a resident distributed graph: the preprocessing pipeline
// (cyclic redistribution, degree relabeling, 2D block construction) runs
// exactly once at construction, and the resulting per-rank blocks then serve
// any number of counting queries and update batches. The SPMD world —
// including its transport and, for TransportTCP, its sockets — stays
// up between requests.
//
// All methods are safe for concurrent use, under a reader/writer epoch
// scheduler (see scheduler.go): Count and Transitivity admit concurrently
// (identical concurrent queries share one epoch's result), while
// ApplyUpdates calls enqueue into a write queue whose drains coalesce all
// pending batches into one exclusive write epoch. Close drains the write
// queue, waits out in-flight queries, and is idempotent; late callers get
// ErrClosed.
type Cluster struct {
	world *mpi.World
	// remote replaces world on coordinator clusters (NewClusterCoordinator):
	// epochs run on worker processes over TCP instead of in-process
	// goroutines, and prep stays nil — the resident state lives in the
	// workers. Exactly one of world and remote is non-nil.
	remote    *remoteBackend
	enum      Enumeration
	ranks     int
	transport Transport

	// sched admits reads concurrently and writes exclusively; prep is
	// replaced wholesale by rebuilds under sched.gate held exclusively and
	// read under it held shared.
	sched *scheduler
	prep  []*core.Prepared // per-rank resident state, indexed by rank

	queries     atomic.Int64
	readEpochs  atomic.Int64
	updates     atomic.Int64
	rebuilds    atomic.Int64
	incRebuilds atomic.Int64 // the subset of rebuilds that ran incrementally
	mapTasks    atomic.Int64 // intersection pairs of completed count epochs

	// Standing kernel defaults from Options, immutable after construction:
	// queries resolve KernelThreads=0 against kernelThreads, and the write
	// path's delta passes read the same config off each Prepared value.
	kernelThreads int
	// readOnly marks a follower's cluster: the public write path rejects
	// with ErrFollowerReadOnly, and only the replication apply loop mutates
	// the resident state (under the exclusive gate, like any write).
	readOnly  bool
	lastTri   atomic.Int64 // maintained triangle count, -1 until first query
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	// Write-path staleness state, touched only with sched.gate held
	// exclusively. rebuildFraction, incrementalFraction, autoRebuild and
	// maxVertices are immutable. incrementalFraction is the degree-dirty
	// eligibility threshold for incremental rebuilds (0 = always run the
	// full pipeline); fullPreOps the operation count of the last full
	// pipeline run, the baseline incremental rebuilds report savings
	// against (0 on a restored cluster until its first full rebuild).
	rebuildFraction     float64
	incrementalFraction float64
	autoRebuild         bool
	maxVertices         int64 // growth cap (0 = unbounded)
	baseM               int64 // edge count at the last build, staleness denominator
	appliedEdges        int64 // effective updates applied since the last build
	fullPreOps          int64

	// persist is the durability state (snapshot directory + WAL); nil when
	// Options.PersistDir was unset. See persist.go.
	persist *persister

	// metrics holds the pre-resolved observability handles; the registry
	// behind them also receives the runtime's and kernel's series. See
	// metrics.go.
	metrics *clusterMetrics
}

// NewCluster builds a resident cluster over g: the graph is scattered to
// opt.Ranks ranks and preprocessed into the 2D block distribution once.
// Square rank counts use the Cannon schedule, other rank counts (or
// opt.ForceSUMMA) the SUMMA schedule; opt.Transport selects in-process
// channels or loopback TCP. The caller must Close the cluster.
func NewCluster(g *Graph, opt Options) (*Cluster, error) {
	return newCluster(dgraph.ScatterInput{Graph: g}, opt)
}

// NewClusterRMAT builds a resident cluster whose graph is generated in
// parallel on the ranks themselves (as the paper does for its g500 inputs),
// so no rank ever holds the full edge list.
func NewClusterRMAT(params RMATParams, scale, edgeFactor int, seed uint64, opt Options) (*Cluster, error) {
	in := dgraph.RMATInput{Params: params, Scale: scale, EdgeFactor: edgeFactor, Seed: seed}
	return newCluster(in, opt)
}

func newCluster(in dgraph.Input, opt Options) (*Cluster, error) {
	p, err := opt.ranks()
	if err != nil {
		return nil, err
	}
	frac, err := opt.rebuildFraction()
	if err != nil {
		return nil, err
	}
	snapFrac, err := opt.snapshotFraction()
	if err != nil {
		return nil, err
	}
	incFrac, err := opt.incrementalRebuildFraction()
	if err != nil {
		return nil, err
	}
	if opt.DisableIncrementalRebuild {
		incFrac = 0
	}
	if opt.MaxVertices < 0 {
		return nil, fmt.Errorf("tc2d: MaxVertices=%d must be non-negative", opt.MaxVertices)
	}
	kthreads, err := opt.kernelThreads()
	if err != nil {
		return nil, err
	}
	// Resident clusters are always observable: without a caller-provided
	// registry they get a private one. Setting opt.Metrics here threads the
	// registry into the world (epoch/per-rank series) and, via coreOptions,
	// into the preparation pipeline's kernel pools.
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	world, err := opt.newWorld(p)
	if err != nil {
		return nil, err
	}
	summa := opt.useSUMMA(p)
	copt := opt.coreOptions()
	prep := make([]*core.Prepared, p)
	_, err = world.Run(func(c *mpi.Comm) (any, error) {
		d, err := in.Build(c)
		if err != nil {
			return nil, err
		}
		var pr *core.Prepared
		if summa {
			pr, err = core.PrepareSUMMA(c, d, copt)
		} else {
			pr, err = core.Prepare(c, d, copt)
		}
		if err != nil {
			return nil, err
		}
		pr.SetKernelConfig(kthreads)
		prep[c.Rank()] = pr
		return nil, nil
	})
	if err != nil {
		world.Close()
		return nil, err
	}
	cl := &Cluster{
		world:               world,
		prep:                prep,
		enum:                opt.Enumeration,
		ranks:               p,
		transport:           opt.Transport,
		sched:               newScheduler(),
		rebuildFraction:     frac,
		incrementalFraction: incFrac,
		autoRebuild:         !opt.DisableAutoRebuild,
		maxVertices:         opt.MaxVertices,
		baseM:               prep[0].M(),
		fullPreOps:          prep[0].PreOps(),
		kernelThreads:       kthreads,
		metrics:             newClusterMetrics(opt.Metrics),
	}
	cl.lastTri.Store(-1)
	cl.syncGraphMetrics()
	if opt.PersistDir != "" {
		if err := cl.initPersist(opt, snapFrac); err != nil {
			world.Close()
			return nil, err
		}
	}
	go cl.writeLoop()
	return cl, nil
}

// Count answers one triangle counting query against the resident blocks. No
// preprocessing work is repeated: the returned Result has PreOps == 0 and
// PreprocessTime == 0, and TotalTime is the counting phase alone.
//
// Count admits concurrently: queries never wait on each other (they run as
// overlapping read epochs), only on write epochs. Concurrent queries with
// identical QueryOptions share a single epoch's result — safe because the
// scheduler guarantees the resident state cannot change while any of the
// sharing callers is admitted.
func (cl *Cluster) Count(q QueryOptions) (*Result, error) {
	start := time.Now()
	cl.sched.gate.RLock()
	cl.metrics.admissionWait.Observe(time.Since(start).Seconds())
	defer cl.sched.gate.RUnlock()
	if cl.closed.Load() {
		return nil, ErrClosed
	}
	if q.KernelThreads < 0 {
		return nil, fmt.Errorf("tc2d: KernelThreads=%d must be non-negative", q.KernelThreads)
	}
	res, err := cl.countShared(q)
	cl.metrics.observeOp("count", start, err)
	if err != nil {
		return nil, err
	}
	cl.queries.Add(1)
	return res, nil
}

// CountTraced is Count with a per-query execution trace: the returned span
// tree brackets admission, the counting epoch, and inside it each rank's
// schedule — every Cannon/SUMMA step split into its communication (shift or
// broadcast) and kernel phases, with LogGP virtual times attached. Traced
// queries run their own epoch (they never join a shared read flight), so
// the tree describes exactly this query's work. The trace is returned even
// when the count fails, truncated at the failure point.
func (cl *Cluster) CountTraced(q QueryOptions) (*Result, *obs.Trace, error) {
	tr := obs.NewTrace("count")
	defer tr.End()
	start := time.Now()
	adm := tr.Span().StartChild("admission")
	cl.sched.gate.RLock()
	adm.End()
	cl.metrics.admissionWait.Observe(time.Since(start).Seconds())
	defer cl.sched.gate.RUnlock()
	if cl.closed.Load() {
		return nil, tr, ErrClosed
	}
	if q.KernelThreads < 0 {
		return nil, tr, fmt.Errorf("tc2d: KernelThreads=%d must be non-negative", q.KernelThreads)
	}
	es := tr.Span().StartChild("epoch")
	res, err := cl.countEpoch(q, es)
	es.End()
	cl.metrics.observeOp("count", start, err)
	if err != nil {
		return nil, tr, err
	}
	cl.queries.Add(1)
	cl.readEpochs.Add(1)
	return resultCopy(res), tr, nil
}

// countShared serves one query, joining an in-flight identical query's
// epoch when one exists. The caller holds sched.gate (shared or exclusive)
// and counts the query itself.
func (cl *Cluster) countShared(q QueryOptions) (*Result, error) {
	s := cl.sched
	s.rmu.Lock()
	if f, ok := s.flights[q]; ok {
		s.rmu.Unlock()
		cl.metrics.flightShared.Inc()
		<-f.done
		return resultCopy(f.res), f.err
	}
	f := &readFlight{done: make(chan struct{})}
	s.flights[q] = f
	s.rmu.Unlock()

	f.res, f.err = cl.countEpoch(q, nil)
	if f.err == nil {
		cl.readEpochs.Add(1)
	}
	s.rmu.Lock()
	delete(s.flights, q)
	s.rmu.Unlock()
	close(f.done)
	return resultCopy(f.res), f.err
}

// countEpoch runs one counting epoch as a read epoch on the world. The
// caller holds sched.gate. A non-nil parent span collects one per-rank
// child span tree (see core.CountPrepared); kernel counters always land in
// the cluster registry.
func (cl *Cluster) countEpoch(q QueryOptions, parent *obs.Span) (*Result, error) {
	copt := cl.queryCoreOptions(q)
	var res *core.Result
	if cl.remote != nil {
		// Worker processes run the epoch; per-rank traces and kernel
		// counters stay in the workers' own registries.
		var err error
		res, err = cl.remote.count(copt)
		if err != nil {
			return nil, err
		}
	} else {
		copt.Metrics = cl.metrics.registry()
		copt.Trace = parent
		prep := cl.prep
		results, err := cl.world.RunRead(func(c *mpi.Comm) (any, error) {
			return core.CountPrepared(c, prep[c.Rank()], copt)
		})
		if err != nil {
			return nil, err
		}
		res = results[0].(*core.Result)
	}
	cl.lastTri.Store(res.Triangles)
	cl.mapTasks.Add(res.MapTasks)
	return res, nil
}

// metaNow reads the cluster's graph metadata: rank 0's resident state
// in-process, the piggybacked cache of the newest epoch reply on
// coordinator clusters. Every metadata consumer (Info, staleness checks,
// coalescing, metrics) goes through this seam so it cannot care where the
// ranks live.
func (cl *Cluster) metaNow() wireMeta {
	if cl.remote != nil {
		return cl.remote.metaNow()
	}
	return metaOf(cl.prep[0])
}

// resultCopy gives each caller of a shared flight its own Result value,
// including the per-shift slice — callers may mutate what they get back.
func resultCopy(res *Result) *Result {
	if res == nil {
		return nil
	}
	cp := *res
	if res.LocalPerShift != nil {
		cp.LocalPerShift = append([]float64(nil), res.LocalPerShift...)
	}
	return &cp
}

// Transitivity returns the global clustering coefficient
// 3·triangles / #wedges of the resident graph. Both inputs stay exact
// across updates: the wedge count is maintained incrementally by
// ApplyUpdates and the triangle count is the delta-maintained running
// total (one default query runs first if none has completed yet), so no
// stale cache can leak into the ratio. Admits concurrently, like Count.
func (cl *Cluster) Transitivity() (float64, error) {
	start := time.Now()
	cl.sched.gate.RLock()
	cl.metrics.admissionWait.Observe(time.Since(start).Seconds())
	defer cl.sched.gate.RUnlock()
	if cl.closed.Load() {
		return 0, ErrClosed
	}
	if cl.lastTri.Load() < 0 {
		if _, err := cl.countShared(QueryOptions{}); err != nil {
			cl.metrics.observeOp("transitivity", start, err)
			return 0, err
		}
		cl.queries.Add(1)
	}
	cl.metrics.observeOp("transitivity", start, nil)
	return TransitivityFromTotals(cl.lastTri.Load(), cl.metaNow().Wedges), nil
}

// Info returns a snapshot of the resident cluster.
func (cl *Cluster) Info() ClusterInfo {
	cl.sched.gate.RLock()
	defer cl.sched.gate.RUnlock()
	cl.syncGraphMetrics()
	meta := cl.metaNow()
	return ClusterInfo{
		N:                   meta.N,
		M:                   meta.M,
		BaseN:               meta.BaseN,
		OverflowN:           meta.OverflowN,
		OverflowFraction:    meta.overflowFraction(),
		SpaceVersion:        meta.SpaceVersion,
		Wedges:              meta.Wedges,
		Ranks:               cl.ranks,
		Transport:           cl.transport,
		Queries:             cl.queries.Load(),
		Updates:             cl.updates.Load(),
		Rebuilds:            cl.rebuilds.Load(),
		IncrementalRebuilds: cl.incRebuilds.Load(),
		ReadEpochs:          cl.readEpochs.Load(),
		WriteEpochs:         cl.sched.writeEpochs.Load(),
		CoalescedBatches:    cl.sched.absorbed.Load(),
		QueueDepth:          cl.sched.depth.Load(),
		KernelThreads:       meta.KernelWorkers,
		MapTasks:            cl.mapTasks.Load(),
		PreOps:              meta.PreOps,
		PreprocessTime:      meta.PreprocessTime,
		CommFracPre:         meta.CommFracPre,
		Persist:             cl.persistInfo(),
		Workers:             cl.Workers(),
		Degraded:            cl.Degraded(),
	}
}

// Close releases the cluster: the write queue is drained first (every
// ApplyUpdates accepted before Close began still commits — and, on a
// durable cluster, lands in the WAL), in-flight queries and snapshots
// finish (an in-flight Snapshot holds the gate shared, so the world never
// comes down under its encoding epoch), then the world (and, for TCP, the
// sockets) comes down and the WAL handle is released. Close is idempotent;
// operations after Close return ErrClosed.
func (cl *Cluster) Close() error {
	cl.closeOnce.Do(func() {
		s := cl.sched
		s.mu.Lock()
		s.closing = true
		s.cond.Broadcast()
		s.mu.Unlock()
		<-s.drainedCh
		s.gate.Lock()
		cl.closed.Store(true)
		if cl.remote != nil {
			cl.closeErr = cl.remote.close()
		} else {
			cl.closeErr = cl.world.Close()
		}
		cl.closePersist()
		s.gate.Unlock()
	})
	return cl.closeErr
}
