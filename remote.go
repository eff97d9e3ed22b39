package tc2d

// Multi-process deployment, coordinator side.
//
// A coordinator cluster is an ordinary *Cluster whose epochs run on worker
// PROCESSES instead of in-process goroutines: NewClusterCoordinator listens
// for tcworker daemons (internal/pworld handles the join/heartbeat/mesh
// protocol), ships the graph to them once, and from then on every query,
// update batch, rebuild and snapshot is one coordinated epoch over the
// process-spanning mpi world the workers built among themselves. The
// coordinator itself hosts no ranks and carries no rank traffic — it holds
// the cluster-level state (scheduler, counters, WAL, snapshots) and a cached
// copy of the graph metadata piggybacked on every epoch reply.
//
// Failure model: when any worker dies (socket error, heartbeat timeout,
// graceful leave) the in-flight epochs fail with ErrWorkerLost and the
// cluster degrades — operations fail fast with ErrDegraded. The coordinator's
// own counters (triangle total, applied edges, WAL) only ever advance after
// an epoch commits, so they remain the authority. Once a replacement worker
// joins and the mesh rebuilds, a durable cluster (Options.PersistDir)
// recovers automatically: every worker — the replacement AND the survivors,
// whose in-memory state an aborted epoch may have left inconsistent —
// restores from the newest snapshot chain plus a WAL-tail replay, exactly
// reproducing the acknowledged state. A cluster without PersistDir stays
// degraded permanently (there is no durable state to restore from) and
// should be closed.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/obs"
	"tc2d/internal/pworld"
	"tc2d/internal/snapshot"
)

// ErrWorkerLost marks an operation that failed because a worker process died
// while the epoch was in flight. The epoch's work is void: no state it
// touched on any worker survives (recovery restores the workers from the
// last durable state). Test with errors.Is.
var ErrWorkerLost = errors.New("tc2d: worker process lost")

// ErrDegraded marks an operation refused because the coordinator's world is
// missing workers: one was lost and no replacement has joined yet, or a
// replacement joined but recovery has not finished. Durable clusters clear
// the condition automatically when recovery completes; clusters without
// Options.PersistDir stay degraded forever once a worker is lost. Test with
// errors.Is.
var ErrDegraded = errors.New("tc2d: cluster is degraded, waiting for workers")

// Epoch operation names of the coordinator/worker protocol.
const (
	opBuild       = "build"        // prepare the resident state from a shipped graph
	opCount       = "count"        // one counting query
	opApply       = "apply"        // one coalesced write super-batch
	opRebuildInc  = "rebuild_inc"  // incremental (churn-proportional) rebuild
	opRebuildFull = "rebuild_full" // full-pipeline rebuild
	opEncodeSnap  = "encode_snap"  // encode per-rank snapshot blobs
	opSnapDone    = "snap_done"    // snapshot published: reset dirty tracking
	opRestore     = "restore"      // install one snapshot-chain member
)

// wireKernel is the gob-safe subset of core.Options shipped with build and
// count epochs (Metrics and Trace are process-local and stay behind).
type wireKernel struct {
	Enumeration    int
	NoDoublySparse bool
	NoDirectHash   bool
	NoEarlyBreak   bool
	NoBlob         bool
	TrackPerShift  bool
	KernelThreads  int
}

func wireKernelOf(o core.Options) wireKernel {
	return wireKernel{
		Enumeration:    int(o.Enumeration),
		NoDoublySparse: o.NoDoublySparse,
		NoDirectHash:   o.NoDirectHash,
		NoEarlyBreak:   o.NoEarlyBreak,
		NoBlob:         o.NoBlob,
		TrackPerShift:  o.TrackPerShift,
		KernelThreads:  o.KernelThreads,
	}
}

func (k wireKernel) coreOptions() core.Options {
	return core.Options{
		Enumeration:    core.Enumeration(k.Enumeration),
		NoDoublySparse: k.NoDoublySparse,
		NoDirectHash:   k.NoDirectHash,
		NoEarlyBreak:   k.NoEarlyBreak,
		NoBlob:         k.NoBlob,
		TrackPerShift:  k.TrackPerShift,
		KernelThreads:  k.KernelThreads,
	}
}

// wireRMAT describes a distributed RMAT generation (no graph bytes travel:
// every rank generates its own 1D slice, as in NewClusterRMAT).
type wireRMAT struct {
	Params     RMATParams
	Scale      int
	EdgeFactor int
	Seed       uint64
}

// wireBuild parameterizes the one-time opBuild epoch.
type wireBuild struct {
	SUMMA    bool
	Kernel   wireKernel
	KThreads int  // standing kernel config (SetKernelConfig)
	Track    bool // enable snapshot dirty tracking (durable clusters)
	RMAT     *wireRMAT
}

// wireSnap parameterizes opEncodeSnap.
type wireSnap struct{ Delta bool }

// wireRestore parameterizes one opRestore epoch (one snapshot-chain member).
type wireRestore struct {
	Delta    bool // apply a delta blob onto the restored base
	Final    bool // last chain member: finish kernel config and tracking
	Ranks    int
	Track    bool
	KThreads int
}

// wireMeta is the graph metadata piggybacked on every epoch reply from rank
// 0. The coordinator caches the newest copy, so metadata reads (Info,
// staleness checks, metrics) never need an epoch of their own. All fields
// are global — identical on every rank — by construction.
type wireMeta struct {
	N, M, Wedges   int64
	BaseN          int64
	OverflowN      int64
	SpaceVersion   int64
	PreOps         int64
	PreprocessTime float64
	CommFracPre    float64
	KernelWorkers  int
	DegreeDirty    int
	QR, QC         int
	SUMMA          bool
}

// overflowFraction is (N-BaseN)/N, the share of the id space outside the
// degree-ordered layout.
func (m wireMeta) overflowFraction() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.OverflowN) / float64(m.N)
}

// metaOf snapshots one rank's Prepared state into the wire form.
func metaOf(pr *core.Prepared) wireMeta {
	sp := pr.Space()
	qr, qc, summa := pr.GridShape()
	return wireMeta{
		N: pr.N(), M: pr.M(), Wedges: pr.Wedges(),
		BaseN: sp.BaseN, OverflowN: sp.OverflowN(), SpaceVersion: sp.Version,
		PreOps: pr.PreOps(), PreprocessTime: pr.PreprocessTime(), CommFracPre: pr.CommFracPre(),
		KernelWorkers: pr.KernelWorkers(), DegreeDirty: pr.DegreeDirtyCount(),
		QR: qr, QC: qc, SUMMA: summa,
	}
}

// opReply is the result payload one epoch operation sends back. Rank 0
// always carries Meta; the op-specific field depends on the operation
// (opEncodeSnap replies Blob from every rank).
type opReply struct {
	Meta  *wireMeta
	Count *core.Result
	Apply *delta.Result
	Stats *delta.RebuildStats
	Blob  []byte
}

// gobEncode serializes one wire value. The wire structs are all plain
// exported fields, so encoding cannot fail on well-formed values.
func gobEncode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("tc2d: wire encode: %v", err))
	}
	return buf.Bytes()
}

func gobDecode(b []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// CoordinatorOptions parameterizes the worker-facing half of a coordinator
// cluster; Options keeps parameterizing everything else (world size via
// Ranks, kernel and policy knobs, PersistDir). The zero value listens on an
// ephemeral loopback port and waits up to a minute for workers.
type CoordinatorOptions struct {
	// Listen is the TCP address workers dial. Default "127.0.0.1:0"; the
	// resolved address is available as Cluster.CoordinatorAddr. For
	// multi-host deployments bind a reachable interface.
	Listen string
	// WorkerWait bounds how long NewClusterCoordinator (and
	// OpenClusterCoordinator) blocks waiting for enough workers to claim
	// every rank. Default 60s.
	WorkerWait time.Duration
	// HeartbeatInterval is how often workers are pinged (default 1s);
	// HeartbeatTimeout evicts a worker whose last pong is older than this
	// (default 5s). The timeout must comfortably exceed the longest
	// exclusive epoch a deployment expects.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout evicts a worker silent for this long. Default 5s.
	HeartbeatTimeout time.Duration
	// OnListen, when non-nil, is called with the resolved listen address
	// once the listener is bound, BEFORE the constructor blocks waiting for
	// workers — the hook that lets a caller using an ephemeral port (":0")
	// launch or direct its workers.
	OnListen func(addr string)
	// Logf, when non-nil, receives membership protocol log lines.
	Logf func(format string, args ...any)
}

// remoteBackend is the coordinator-side epoch engine of a remote Cluster:
// it wraps the pworld.Coordinator, caches the metadata piggybacked on epoch
// replies, and tracks the degraded state across worker losses and
// recoveries.
type remoteBackend struct {
	coord *pworld.Coordinator
	addr  string
	ranks int

	metaMu sync.Mutex
	meta   wireMeta

	degraded   atomic.Bool
	recovering atomic.Bool
	connected  atomic.Int64

	readyOnce sync.Once
	readyCh   chan struct{}

	clMu sync.Mutex
	cl   *Cluster

	metrics *clusterMetrics
	logf    func(format string, args ...any)
}

func (rb *remoteBackend) log(format string, args ...any) {
	if rb.logf != nil {
		rb.logf(format, args...)
	}
}

func (rb *remoteBackend) metaNow() wireMeta {
	rb.metaMu.Lock()
	defer rb.metaMu.Unlock()
	return rb.meta
}

func (rb *remoteBackend) setMeta(m wireMeta) {
	rb.metaMu.Lock()
	rb.meta = m
	rb.metaMu.Unlock()
}

func (rb *remoteBackend) cluster() *Cluster {
	rb.clMu.Lock()
	defer rb.clMu.Unlock()
	return rb.cl
}

func (rb *remoteBackend) attach(cl *Cluster) {
	rb.clMu.Lock()
	rb.cl = cl
	rb.clMu.Unlock()
}

// onEvent tracks membership transitions: it maintains the worker gauges,
// flips the backend degraded on a loss, and kicks recovery when the world
// reassembles.
func (rb *remoteBackend) onEvent(ev pworld.Event) {
	switch ev.Kind {
	case pworld.EventJoined:
		n := rb.connected.Add(1)
		rb.metrics.observeWorkerJoin(n)
	case pworld.EventLost:
		n := rb.connected.Add(-1)
		rb.degraded.Store(true)
		rb.metrics.observeWorkerLoss(n, ev.Reason)
	case pworld.EventReady:
		rb.readyOnce.Do(func() { close(rb.readyCh) })
		if rb.degraded.Load() {
			go rb.recover()
		}
	}
}

// mapRemoteErr translates pworld errors into the package's typed errors.
func mapRemoteErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, pworld.ErrWorkerLost):
		return fmt.Errorf("%v: %w", err, ErrWorkerLost)
	case errors.Is(err, pworld.ErrNotReady):
		return fmt.Errorf("tc2d: world missing workers: %w", ErrDegraded)
	default:
		return err
	}
}

// opRun dispatches one epoch operation, refusing while degraded; opRunRaw
// is the recovery path's variant that bypasses the degraded check.
func (rb *remoteBackend) opRun(read bool, op string, common []byte, perRank map[int][]byte) (map[int][]byte, *opReply, error) {
	if rb.degraded.Load() {
		return nil, nil, fmt.Errorf("tc2d: %s refused: %w", op, ErrDegraded)
	}
	return rb.opRunRaw(read, op, common, perRank)
}

func (rb *remoteBackend) opRunRaw(read bool, op string, common []byte, perRank map[int][]byte) (map[int][]byte, *opReply, error) {
	payloads, err := rb.coord.Run(read, op, common, perRank)
	if err != nil {
		return nil, nil, mapRemoteErr(err)
	}
	rep := new(opReply)
	if b := payloads[0]; len(b) > 0 {
		if err := gobDecode(b, rep); err != nil {
			return nil, nil, fmt.Errorf("tc2d: %s reply: %w", op, err)
		}
		if rep.Meta != nil {
			rb.setMeta(*rep.Meta)
		}
	}
	return payloads, rep, nil
}

// count runs one counting query as a concurrent read epoch on the workers.
func (rb *remoteBackend) count(copt core.Options) (*core.Result, error) {
	_, rep, err := rb.opRun(true, opCount, gobEncode(wireKernelOf(copt)), nil)
	if err != nil {
		return nil, err
	}
	if rep.Count == nil {
		return nil, fmt.Errorf("tc2d: count epoch returned no result")
	}
	return rep.Count, nil
}

// apply runs one coalesced super-batch as an exclusive write epoch.
func (rb *remoteBackend) apply(super []delta.Update) (*delta.Result, error) {
	_, rep, err := rb.opRun(false, opApply, encodeBatch(super), nil)
	if err != nil {
		return nil, err
	}
	if rep.Apply == nil {
		return nil, fmt.Errorf("tc2d: apply epoch returned no result")
	}
	return rep.Apply, nil
}

// applyReplay re-applies one WAL record during recovery, bypassing the
// degraded fast-fail. The WAL payload is already in opApply's common-payload
// framing (encodeBatch), so it ships verbatim.
func (rb *remoteBackend) applyReplay(payload []byte) error {
	_, _, err := rb.opRunRaw(false, opApply, payload, nil)
	return err
}

func (rb *remoteBackend) rebuildIncremental() (*delta.RebuildStats, error) {
	_, rep, err := rb.opRun(false, opRebuildInc, nil, nil)
	if err != nil {
		return nil, err
	}
	if rep.Stats == nil {
		return nil, fmt.Errorf("tc2d: incremental rebuild epoch returned no stats")
	}
	return rep.Stats, nil
}

func (rb *remoteBackend) rebuildFull(track bool) error {
	_, _, err := rb.opRun(false, opRebuildFull, gobEncode(wireBuild{Track: track}), nil)
	return err
}

// encodeSnap has every rank encode its snapshot blob (full or delta) inside
// a read epoch and returns the per-rank blobs for the coordinator to write.
func (rb *remoteBackend) encodeSnap(useDelta bool) (map[int][]byte, error) {
	payloads, _, err := rb.opRun(true, opEncodeSnap, gobEncode(wireSnap{Delta: useDelta}), nil)
	if err != nil {
		return nil, err
	}
	blobs := make(map[int][]byte, rb.ranks)
	for r := 0; r < rb.ranks; r++ {
		var rep opReply
		if len(payloads[r]) == 0 {
			return nil, fmt.Errorf("tc2d: snapshot epoch: rank %d returned no blob", r)
		}
		if err := gobDecode(payloads[r], &rep); err != nil {
			return nil, fmt.Errorf("tc2d: snapshot epoch: rank %d reply: %w", r, err)
		}
		blobs[r] = rep.Blob
	}
	return blobs, nil
}

// snapDone tells every rank its dirty tracking was consumed by a published
// snapshot.
func (rb *remoteBackend) snapDone() error {
	_, _, err := rb.opRun(true, opSnapDone, nil, nil)
	return err
}

// restoreChain installs one validated snapshot chain on every worker: the
// base blobs first, then each delta in application order, one exclusive
// epoch per chain member, blobs read (and checksum-verified) from the
// coordinator's disk. Runs on the raw path: restore IS the way out of the
// degraded state.
func (rb *remoteBackend) restoreChain(dir string, chain []*snapshot.Manifest, track bool, kthreads int) error {
	ranks := chain[len(chain)-1].Ranks
	for i, m := range chain {
		perRank := make(map[int][]byte, ranks)
		for r := 0; r < ranks; r++ {
			blob, err := snapshot.ReadRank(dir, m, r)
			if err != nil {
				return err
			}
			perRank[r] = blob
		}
		common := gobEncode(wireRestore{
			Delta: i > 0, Final: i == len(chain)-1,
			Ranks: ranks, Track: track, KThreads: kthreads,
		})
		if _, _, err := rb.opRunRaw(false, opRestore, common, perRank); err != nil {
			return err
		}
	}
	return nil
}

// recover restores a reassembled world from the durable state: every worker
// installs the newest snapshot chain and replays the WAL tail, after which
// the cluster leaves the degraded state. Runs once per reassembly (Ready
// events during an active recovery are ignored); a failure — including
// another worker loss mid-recovery — leaves the cluster degraded and the
// next reassembly retries.
func (rb *remoteBackend) recover() {
	if !rb.recovering.CompareAndSwap(false, true) {
		return
	}
	defer rb.recovering.Store(false)
	cl := rb.cluster()
	if cl == nil {
		return // lost and reassembled during construction; the builder handles it
	}
	start := time.Now()
	cl.sched.gate.Lock()
	defer cl.sched.gate.Unlock()
	if cl.closed.Load() || !rb.degraded.Load() || !rb.coord.Ready() {
		return
	}
	if cl.persist == nil {
		rb.log("tc2d: workers rejoined but the cluster has no PersistDir — no durable state to restore, staying degraded")
		return
	}
	if err := cl.restoreWorkersLocked(); err != nil {
		rb.log("tc2d: worker recovery failed (will retry on next reassembly): %v", err)
		return
	}
	rb.degraded.Store(false)
	rb.metrics.observeWorkerRecovery(time.Since(start))
	rb.log("tc2d: workers recovered from durable state in %s", time.Since(start).Round(time.Millisecond))
}

// restoreWorkersLocked reinstalls the durable state on every worker: newest
// valid snapshot chain, then the WAL tail. The coordinator's own counters
// (triangle total, applied edges, WAL sequence) are NOT touched — they only
// ever advanced after committed epochs and remain the authority; the replay
// brings the workers back to exactly that state. sched.gate is held
// exclusively.
func (cl *Cluster) restoreWorkersLocked() error {
	rb := cl.remote
	p := cl.persist
	dir := p.dir
	seqs, err := snapshot.List(dir)
	if err != nil {
		return err
	}
	if len(seqs) == 0 {
		return fmt.Errorf("%w: %s", ErrNoSnapshot, dir)
	}
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		m, err := snapshot.Load(dir, seqs[i])
		if err == nil {
			var chain []*snapshot.Manifest
			chain, err = loadChain(dir, m)
			if err == nil {
				err = rb.restoreChain(dir, chain, true, cl.kernelThreads)
				if err == nil {
					return cl.replayWALToWorkers(dir, m.AppliedSeq)
				}
				if errors.Is(err, ErrWorkerLost) || errors.Is(err, ErrDegraded) {
					return err // not a data problem: don't walk to older snapshots
				}
			}
		}
		lastErr = err
	}
	return lastErr
}

// replayWALToWorkers re-applies every WAL record after seq on the workers,
// without touching the coordinator's counters (the records were committed —
// and counted — before the workers were lost).
func (cl *Cluster) replayWALToWorkers(dir string, after uint64) error {
	rb := cl.remote
	var replayed int64
	_, _, _, err := snapshot.Replay(dir, after, func(seq uint64, payload []byte) error {
		if err := rb.applyReplay(payload); err != nil {
			return fmt.Errorf("tc2d: WAL replay of batch %d to workers: %w", seq, err)
		}
		replayed++
		return nil
	})
	if err != nil {
		return err
	}
	rb.log("tc2d: replayed %d WAL batches to recovered workers", replayed)
	return nil
}

func (rb *remoteBackend) close() error {
	return rb.coord.Close()
}

// Workers reports the number of connected worker processes; 0 on ordinary
// in-process clusters.
func (cl *Cluster) Workers() int {
	if cl.remote == nil {
		return 0
	}
	return cl.remote.coord.Workers()
}

// Degraded reports whether a coordinator cluster is currently missing
// workers or mid-recovery (operations fail fast with ErrDegraded while it
// is). Always false on in-process clusters.
func (cl *Cluster) Degraded() bool {
	return cl.remote != nil && cl.remote.degraded.Load()
}

// CoordinatorAddr is the resolved worker-facing listen address of a
// coordinator cluster ("" on in-process clusters) — the address tcworker
// processes dial.
func (cl *Cluster) CoordinatorAddr() string {
	if cl.remote == nil {
		return ""
	}
	return cl.remote.addr
}

// resolveCoordinatorOptions applies the CoordinatorOptions defaults.
func (copt CoordinatorOptions) resolved() CoordinatorOptions {
	if copt.Listen == "" {
		copt.Listen = "127.0.0.1:0"
	}
	if copt.WorkerWait <= 0 {
		copt.WorkerWait = 60 * time.Second
	}
	return copt
}

// newRemoteBackend stands up the worker-facing listener and membership
// protocol. The returned backend is not yet attached to a cluster.
func newRemoteBackend(p int, copt CoordinatorOptions, metrics *clusterMetrics) (*remoteBackend, error) {
	ln, err := net.Listen("tcp", copt.Listen)
	if err != nil {
		return nil, fmt.Errorf("tc2d: coordinator listen %s: %w", copt.Listen, err)
	}
	rb := &remoteBackend{
		addr:    ln.Addr().String(),
		ranks:   p,
		readyCh: make(chan struct{}),
		metrics: metrics,
		logf:    copt.Logf,
	}
	coord, err := pworld.NewCoordinator(ln, pworld.Config{
		World:             p,
		Format:            snapshot.FormatVersion,
		HeartbeatInterval: copt.HeartbeatInterval,
		HeartbeatTimeout:  copt.HeartbeatTimeout,
		OnEvent:           rb.onEvent,
		Logf:              copt.Logf,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	rb.coord = coord
	return rb, nil
}

// waitAssembled blocks until every rank is claimed and the worker mesh is
// built, or the WorkerWait deadline passes.
func (rb *remoteBackend) waitAssembled(wait time.Duration) error {
	select {
	case <-rb.readyCh:
		return nil
	case <-time.After(wait):
		return fmt.Errorf("tc2d: %d-rank world did not assemble within %s (%d workers connected, dial address %s)",
			rb.ranks, wait, rb.coord.Workers(), rb.addr)
	}
}

// NewClusterCoordinator builds a resident cluster whose ranks live in
// separate worker processes: it listens on copt.Listen, waits for tcworker
// processes (RunWorker) to claim all opt.Ranks ranks, ships g to them, and
// runs the preprocessing pipeline across the worker mesh. From then on the
// returned Cluster behaves like any other — Count, ApplyUpdates, Snapshot,
// replication sources — except that worker loss degrades it (see
// ErrDegraded) and, when opt.PersistDir is set, a reassembled worker set
// recovers automatically from the snapshot chain and WAL tail.
// opt.Transport is ignored: rank traffic runs over the workers' TCP mesh.
func NewClusterCoordinator(g *Graph, opt Options, copt CoordinatorOptions) (*Cluster, error) {
	return newClusterCoordinator(g, nil, opt, copt)
}

// NewClusterCoordinatorRMAT is NewClusterCoordinator for a generated RMAT
// graph: only the generator parameters travel to the workers, and every
// rank generates its own slice of the edge stream, so no process ever holds
// the full graph.
func NewClusterCoordinatorRMAT(params RMATParams, scale, edgeFactor int, seed uint64, opt Options, copt CoordinatorOptions) (*Cluster, error) {
	rm := &wireRMAT{Params: params, Scale: scale, EdgeFactor: edgeFactor, Seed: seed}
	return newClusterCoordinator(nil, rm, opt, copt)
}

func newClusterCoordinator(g *Graph, rm *wireRMAT, opt Options, copt CoordinatorOptions) (*Cluster, error) {
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
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	copt = copt.resolved()
	metrics := newClusterMetrics(opt.Metrics)
	metrics.initWorkerMetrics()
	rb, err := newRemoteBackend(p, copt, metrics)
	if err != nil {
		return nil, err
	}
	if copt.OnListen != nil {
		copt.OnListen(rb.addr)
	}
	if err := rb.waitAssembled(copt.WorkerWait); err != nil {
		rb.close()
		return nil, err
	}
	build := wireBuild{
		SUMMA:    opt.useSUMMA(p),
		Kernel:   wireKernelOf(opt.coreOptions()),
		KThreads: kthreads,
		Track:    opt.PersistDir != "",
		RMAT:     rm,
	}
	var perRank map[int][]byte
	if rm == nil {
		perRank = map[int][]byte{0: gobEncode(g)}
	}
	if _, _, err := rb.opRun(false, opBuild, gobEncode(build), perRank); err != nil {
		rb.close()
		return nil, err
	}
	meta := rb.metaNow()
	cl := &Cluster{
		remote:              rb,
		enum:                opt.Enumeration,
		ranks:               p,
		transport:           opt.Transport,
		sched:               newScheduler(),
		rebuildFraction:     frac,
		incrementalFraction: incFrac,
		autoRebuild:         !opt.DisableAutoRebuild,
		maxVertices:         opt.MaxVertices,
		baseM:               meta.M,
		fullPreOps:          meta.PreOps,
		kernelThreads:       kthreads,
		metrics:             metrics,
	}
	cl.lastTri.Store(-1)
	rb.attach(cl)
	cl.syncGraphMetrics()
	if opt.PersistDir != "" {
		if err := cl.initPersist(opt, snapFrac); err != nil {
			rb.close()
			return nil, err
		}
	}
	go cl.writeLoop()
	return cl, nil
}

// OpenClusterCoordinator restores a coordinator cluster from a persistence
// directory written by a previous coordinator (or in-process) run: it waits
// for workers to claim every rank the snapshot manifest names, installs the
// newest valid snapshot chain on them, replays the WAL tail through write
// epochs, and resumes serving with the restored counters. Exactly like
// OpenCluster, a corrupt newest snapshot falls back to the previous one,
// ErrNoSnapshot means an empty directory, and opt.Ranks/opt.Enumeration
// conflicting with the manifest are errors.
func OpenClusterCoordinator(dir string, opt Options, copt CoordinatorOptions) (*Cluster, error) {
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
	seqs, err := snapshot.List(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, dir)
	}
	newest, err := snapshot.Load(dir, seqs[len(seqs)-1])
	if err != nil {
		// Fall back to any loadable manifest for the world shape; the chain
		// walk below revalidates everything.
		for i := len(seqs) - 2; i >= 0 && err != nil; i-- {
			newest, err = snapshot.Load(dir, seqs[i])
		}
		if err != nil {
			return nil, err
		}
	}
	if opt.Ranks != 0 && opt.Ranks != newest.Ranks {
		return nil, fmt.Errorf("tc2d: snapshot was taken on %d ranks, Options.Ranks=%d", newest.Ranks, opt.Ranks)
	}
	if opt.Enumeration != 0 && int(opt.Enumeration) != newest.Enum {
		return nil, fmt.Errorf("tc2d: snapshot was prepared for %v, Options ask for %v",
			Enumeration(newest.Enum), opt.Enumeration)
	}
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	copt = copt.resolved()
	metrics := newClusterMetrics(opt.Metrics)
	metrics.initWorkerMetrics()
	rb, err := newRemoteBackend(newest.Ranks, copt, metrics)
	if err != nil {
		return nil, err
	}
	if copt.OnListen != nil {
		copt.OnListen(rb.addr)
	}
	if err := rb.waitAssembled(copt.WorkerWait); err != nil {
		rb.close()
		return nil, err
	}

	// Newest valid chain, with fall-through exactly like OpenCluster's; a
	// mid-restore worker loss aborts (it is not a data problem).
	var m *snapshot.Manifest
	var lastErr error
	for i := len(seqs) - 1; i >= 0 && m == nil; i-- {
		cand, err := snapshot.Load(dir, seqs[i])
		if err == nil {
			var chain []*snapshot.Manifest
			chain, err = loadChain(dir, cand)
			if err == nil {
				err = rb.restoreChain(dir, chain, true, kthreads)
				if err == nil {
					m = cand
					break
				}
				if errors.Is(err, ErrWorkerLost) || errors.Is(err, ErrDegraded) {
					rb.close()
					return nil, err
				}
			}
		}
		lastErr = err
		if i > 0 {
			snapshot.Remove(dir, seqs[i])
		}
	}
	if m == nil {
		rb.close()
		return nil, lastErr
	}

	cl := &Cluster{
		remote:              rb,
		enum:                Enumeration(m.Enum),
		ranks:               m.Ranks,
		transport:           opt.Transport,
		sched:               newScheduler(),
		rebuildFraction:     frac,
		incrementalFraction: incFrac,
		autoRebuild:         !opt.DisableAutoRebuild,
		maxVertices:         opt.MaxVertices,
		baseM:               m.BaseM,
		appliedEdges:        m.AppliedEdges,
		kernelThreads:       kthreads,
		metrics:             metrics,
	}
	cl.lastTri.Store(m.Triangles)
	rb.attach(cl)

	// Replay the WAL tail through ordinary write epochs, updating the
	// coordinator counters exactly as openFromChain does.
	var replayed, walEdges int64
	last, newestBase, haveSegments, err := snapshot.Replay(dir, m.AppliedSeq, func(seq uint64, payload []byte) error {
		// The WAL payload IS the opApply common payload (encodeBatch framing),
		// so it ships to the workers verbatim.
		_, rep, err := rb.opRunRaw(false, opApply, payload, nil)
		if err != nil {
			return fmt.Errorf("tc2d: WAL replay of batch %d: %w", seq, err)
		}
		if rep.Apply == nil {
			return fmt.Errorf("tc2d: WAL replay of batch %d returned no result", seq)
		}
		if cl.lastTri.Load() >= 0 {
			cl.lastTri.Add(rep.Apply.DeltaTriangles)
		}
		eff := int64(rep.Apply.Inserted + rep.Apply.Deleted)
		cl.appliedEdges += eff
		walEdges += eff
		replayed++
		return nil
	})
	if err != nil {
		rb.close()
		return nil, err
	}
	if !haveSegments {
		newestBase = m.AppliedSeq
	}
	wal, err := snapshot.CreateWAL(dir, newestBase, last, !opt.NoWALSync)
	if err != nil {
		rb.close()
		return nil, err
	}
	wal.SetObserver(cl.metrics.walObserver())
	cl.metrics.walReplayed.Add(float64(replayed))
	cl.syncGraphMetrics()
	restoredInfo := infoFromManifest(dir, m)
	chain, err := loadChain(dir, m)
	if err != nil {
		wal.Close()
		rb.close()
		return nil, err
	}
	cl.persist = &persister{
		dir:       dir,
		snapFrac:  snapFrac,
		autoSnap:  !opt.DisableAutoSnapshot,
		deltaSnap: !opt.DisableDeltaSnapshot,
		wal:       wal,
		seqWait:   make(chan struct{}),
		seq:       last,
		snapSeq:   m.AppliedSeq,
		walEdges:  walEdges,
		replayed:  replayed,
		lastInfo:  &restoredInfo,
		baseSeq:   chain[0].AppliedSeq,
		haveBase:  true,
		chainLen:  len(chain) - 1,
		churnBase: m.ChurnSinceBase + walEdges,
	}
	go cl.writeLoop()
	return cl, nil
}
