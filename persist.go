package tc2d

// Durability: when Options.PersistDir is set, a Cluster keeps its resident
// state recoverable across process restarts.
//
//   - NewCluster writes an initial snapshot (the freshly prepared state,
//     one checksummed blob per rank, encoded in parallel) and opens the
//     write-ahead log.
//   - Every coalesced super-batch the write scheduler commits is appended
//     to the WAL — fsynced per commit unless Options.NoWALSync — BEFORE
//     its callers are acknowledged, so an acknowledged update survives a
//     crash.
//   - Snapshot() (and the automatic trigger, once the WAL covers more than
//     Options.SnapshotFraction of the resident edge count) persists the
//     current state and rotates the WAL; a snapshot supersedes the older
//     WAL segments, which are pruned.
//   - OpenCluster(dir, opt) restores: newest valid snapshot, decoded in
//     parallel — without re-running the preprocessing pipeline, so the
//     restored cluster reports PreOps == 0 — then the WAL tail replayed
//     through the ordinary delta-apply path. Kill-at-any-point recovery is
//     exact: a torn WAL tail is truncated, a corrupt snapshot falls back to
//     the previous one (whose WAL segments are retained), and counts equal
//     what a from-scratch cluster over the mutated graph would report.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"tc2d/internal/core"
	"tc2d/internal/delta"
	"tc2d/internal/mpi"
	"tc2d/internal/obs"
	"tc2d/internal/snapshot"
)

// ErrSnapshotCorrupt marks persistent state that cannot be trusted: an
// unknown snapshot format version, a checksum or size mismatch on a rank
// blob or WAL record outside the torn-tail window, or a WAL sequence gap.
// Loads fail whole — no partial state is ever installed. Test with
// errors.Is.
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// ErrNoSnapshot is returned by OpenCluster when the persistence directory
// holds no snapshot at all — the caller should build the cluster from its
// graph source instead (with Options.PersistDir set, so the state becomes
// durable from then on).
var ErrNoSnapshot = errors.New("tc2d: persistence directory holds no snapshot")

// SnapshotInfo describes one published snapshot.
type SnapshotInfo struct {
	// Seq is the WAL sequence the snapshot covers: the persisted state is
	// the graph after the first Seq committed write batches.
	Seq uint64
	// Path is the published snapshot directory.
	Path string
	// Bytes is the total size of the per-rank state blobs.
	Bytes int64
	// Triangles is the maintained triangle total at snapshot time (-1 if no
	// count had completed yet).
	Triangles int64
	// Kind is "base" for a full-state snapshot and "delta" for a
	// churn-proportional diff chained off the previous snapshot; ChainLen
	// is the number of deltas between this snapshot and its base (0 for a
	// base).
	Kind     string
	ChainLen int
}

// PersistInfo is the durability section of ClusterInfo. The zero value
// means Options.PersistDir was unset.
type PersistInfo struct {
	Enabled bool
	Dir     string
	// WALSeq is the sequence number of the last committed batch; WALRecords
	// and WALBytes count the appends performed by this process.
	WALSeq     uint64
	WALRecords int64
	WALBytes   int64
	// ReplayedBatches is how many WAL records OpenCluster replayed at boot.
	ReplayedBatches int64
	// Snapshots counts the snapshots written by this process;
	// LastSnapshotSeq is the sequence the newest one covers.
	Snapshots       int64
	LastSnapshotSeq uint64
	// DeltaSnapshots is the subset of Snapshots written as delta blobs.
	// BaseSnapshotSeq is the sequence of the base the current chain hangs
	// off, ChainLen the number of deltas since it, and ChurnSinceBase the
	// effective edge mutations accumulated since that base — the compaction
	// policy's currency.
	DeltaSnapshots  int64
	BaseSnapshotSeq uint64
	ChainLen        int
	ChurnSinceBase  int64
}

// persister is a Cluster's durability state. WAL appends happen only on the
// write path (sched.gate held exclusively). snapMu serializes snapshot
// creation — held across the encode epoch and the fsync'd writes, which can
// take a while; mu guards only the counters and is held briefly, so Info()
// (and tcd's /stats) never blocks behind an in-flight snapshot.
type persister struct {
	dir       string
	snapFrac  float64
	autoSnap  bool
	deltaSnap bool // write churn-proportional delta snapshots when eligible

	snapMu sync.Mutex // serializes snapshotShared end to end

	mu        sync.Mutex
	wal       *snapshot.WAL
	seq       uint64 // last committed batch sequence
	snapSeq   uint64 // sequence covered by the newest snapshot
	walEdges  int64  // effective edge mutations logged since that snapshot
	replayed  int64
	snapshots int64
	lastInfo  *SnapshotInfo
	failed    error // set when the WAL can no longer be trusted to be ahead

	// seqWait is the commit wake: closed (and replaced) on every committed
	// append, so WAL streamers long-polling for records past the committed
	// sequence unblock without polling the log. walDone marks the WAL handle
	// closed; waiters return instead of spinning on the final broadcast.
	seqWait chan struct{}
	walDone bool

	// Delta-chain state. baseSeq/haveBase name the base snapshot the chain
	// hangs off; chainLen counts the deltas since it; churnBase the
	// effective edge mutations since it (never reset by delta snapshots —
	// it is the compaction trigger's currency). forceBase is set by a full
	// rebuild: the replacement state shares nothing with what the chain
	// captured, so the next snapshot must be a fresh base.
	baseSeq   uint64
	haveBase  bool
	chainLen  int
	churnBase int64
	forceBase bool
	deltas    int64 // delta snapshots written by this process
}

// snapshotChainLimit caps how many delta snapshots may chain off one base
// before the next snapshot compacts the chain into a fresh base. Restores
// replay the whole chain, so the limit bounds both restore work and the
// blast radius of a corrupt chain member.
const snapshotChainLimit = 4

// noteFullRebuild marks that the resident state was swapped wholesale: the
// next snapshot must be a base.
func (p *persister) noteFullRebuild() {
	p.mu.Lock()
	p.forceBase = true
	p.mu.Unlock()
}

// brokenErr reports the retirement error, if the persister has one.
func (p *persister) brokenErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

// errNotDurable is returned by Snapshot on clusters built without
// Options.PersistDir.
var errNotDurable = errors.New("tc2d: cluster has no PersistDir — persistence is disabled")

// snapshotRetention is how many snapshots (and their WAL segments) are kept
// on disk: the newest plus one fallback, so a corrupt newest snapshot can
// still recover exactly through the previous snapshot's longer WAL tail.
const snapshotRetention = 2

// encodeBatch serializes one committed super-batch for the WAL: an entry
// count followed by (u, v, op) triples, explicitly little-endian like every
// other persisted structure, so the directory is portable across hosts.
func encodeBatch(batch []delta.Update) []byte {
	b := make([]byte, 0, 4+12*len(batch))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(batch)))
	for _, upd := range batch {
		b = binary.LittleEndian.AppendUint32(b, uint32(upd.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(upd.V))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(upd.Op)))
	}
	return b
}

func decodeBatch(b []byte) ([]delta.Update, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("tc2d: WAL record payload malformed: %w", ErrSnapshotCorrupt)
	}
	n := int(int32(binary.LittleEndian.Uint32(b)))
	if n < 0 || len(b) != 4+12*n {
		return nil, fmt.Errorf("tc2d: WAL record payload malformed: %w", ErrSnapshotCorrupt)
	}
	batch := make([]delta.Update, n)
	for i := range batch {
		off := 4 + 12*i
		batch[i] = delta.Update{
			U:  int32(binary.LittleEndian.Uint32(b[off:])),
			V:  int32(binary.LittleEndian.Uint32(b[off+4:])),
			Op: delta.Op(int32(binary.LittleEndian.Uint32(b[off+8:]))),
		}
	}
	return batch, nil
}

// initPersist sets up durability on a freshly built cluster: the directory
// must not already hold persistent state (reopen that with OpenCluster
// instead — silently overwriting another cluster's snapshots would be data
// loss), the WAL opens at sequence 0, and the initial snapshot of the
// just-prepared state is published so a restart never re-runs the pipeline.
func (cl *Cluster) initPersist(opt Options, snapFrac float64) error {
	seqs, err := snapshot.List(opt.PersistDir)
	if err != nil {
		return err
	}
	if len(seqs) > 0 {
		return fmt.Errorf("tc2d: PersistDir %s already holds cluster state; use OpenCluster to restore it", opt.PersistDir)
	}
	// No published snapshot: anything else in the directory (a WAL segment,
	// a snapshot temp dir) is the artifact of a first boot that crashed
	// before its initial snapshot landed — there is nothing to restore from
	// it, so clear it and build fresh rather than brick the directory.
	if err := snapshot.RemoveBootArtifacts(opt.PersistDir); err != nil {
		return err
	}
	wal, err := snapshot.CreateWAL(opt.PersistDir, 0, 0, !opt.NoWALSync)
	if err != nil {
		return err
	}
	wal.SetObserver(cl.metrics.walObserver())
	// Track per-row/label dirtiness from the start, so every snapshot after
	// the initial base can be a churn-proportional delta. Coordinator
	// clusters enabled tracking worker-side in the build epoch instead.
	if cl.remote == nil {
		for _, pr := range cl.prep {
			pr.EnableSnapshotTracking()
		}
	}
	cl.persist = &persister{
		dir:       opt.PersistDir,
		snapFrac:  snapFrac,
		autoSnap:  !opt.DisableAutoSnapshot,
		deltaSnap: !opt.DisableDeltaSnapshot,
		wal:       wal,
		seqWait:   make(chan struct{}),
	}
	if _, err := cl.snapshotShared(); err != nil {
		wal.Close()
		cl.persist = nil
		return fmt.Errorf("tc2d: initial snapshot: %w", err)
	}
	return nil
}

// logCommitted appends one committed super-batch to the WAL. Called on the
// write path with sched.gate held exclusively, after the epoch mutated the
// resident state and before any caller is acknowledged: an acknowledged
// batch is always durable. effEdges is the epoch's effective mutation count
// (the auto-snapshot trigger's currency).
func (cl *Cluster) logCommitted(batch []delta.Update, effEdges int64) error {
	p := cl.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil {
		return p.failed
	}
	if err := p.wal.Append(p.seq+1, encodeBatch(batch)); err != nil {
		// The in-memory state now leads the durable state; further appends
		// would persist a stream with a hole, so the WAL is retired.
		p.failed = fmt.Errorf("tc2d: WAL append failed, cluster is no longer durable: %w", err)
		return p.failed
	}
	p.seq++
	p.walEdges += effEdges
	p.churnBase += effEdges
	close(p.seqWait)
	p.seqWait = make(chan struct{})
	return nil
}

// CommittedSeq reports the sequence number of the last durably committed
// (acknowledged) write batch — 0 on clusters without a PersistDir. This and
// the two methods below make a durable Cluster a repl.Source: the WAL
// streaming surface reads segments straight from the persistence directory
// and long-polls on the commit wake.
func (cl *Cluster) CommittedSeq() uint64 {
	p := cl.persist
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seq
}

// WALDir is the persistence directory, "" when durability is disabled.
func (cl *Cluster) WALDir() string {
	if cl.persist == nil {
		return ""
	}
	return cl.persist.dir
}

// WaitCommitted blocks until the committed sequence exceeds after, the
// context is done, or the cluster closes, and returns the committed
// sequence either way.
func (cl *Cluster) WaitCommitted(ctx context.Context, after uint64) uint64 {
	p := cl.persist
	if p == nil {
		return 0
	}
	for {
		p.mu.Lock()
		seq, ch, done := p.seq, p.seqWait, p.walDone
		p.mu.Unlock()
		if seq > after || done {
			return seq
		}
		select {
		case <-ctx.Done():
			return seq
		case <-ch:
		}
	}
}

// autoSnapshotDue evaluates the snapshot trigger after a write drain, with
// sched.gate held exclusively (so baseM and the WAL counters are stable):
// once the WAL has accumulated effective mutations beyond SnapshotFraction
// of the edge count at the last build — the same staleness currency
// RebuildFraction uses — the state should be persisted and the WAL
// rotated. The caller then runs the snapshot under the shared gate, so
// queries are not stalled; errors are not fatal to the write path (the WAL
// keeps the cluster recoverable) and the next drain retries.
func (cl *Cluster) autoSnapshotDue() bool {
	p := cl.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed == nil && p.autoSnap && p.seq > p.snapSeq &&
		float64(p.walEdges) > p.snapFrac*float64(cl.baseM)
}

// Snapshot persists the current resident state: every rank encodes and
// writes its own checksummed blob in parallel inside a read epoch (queries
// keep running; writes are excluded by the scheduler gate the caller
// shares), the manifest is published with an atomic rename, the WAL is
// rotated, and snapshots/segments superseded beyond the retention window
// are pruned. Concurrent Snapshot calls serialize; calling it again with no
// interleaving write is a no-op returning the existing snapshot. Close
// waits for an in-flight Snapshot to finish before tearing the world down.
func (cl *Cluster) Snapshot() (*SnapshotInfo, error) {
	start := time.Now()
	cl.sched.gate.RLock()
	defer cl.sched.gate.RUnlock()
	if cl.closed.Load() {
		return nil, ErrClosed
	}
	if cl.persist == nil {
		return nil, errNotDurable
	}
	info, err := cl.snapshotShared()
	cl.metrics.observeOp("snapshot", start, err)
	return info, err
}

// SnapshotTraced is Snapshot with a per-request execution trace bracketing
// admission, the parallel encode-and-write epoch, the manifest commit and
// the WAL rotation. The trace is returned even when the snapshot fails.
func (cl *Cluster) SnapshotTraced() (*SnapshotInfo, *obs.Trace, error) {
	tr := obs.NewTrace("snapshot")
	defer tr.End()
	start := time.Now()
	adm := tr.Span().StartChild("admission")
	cl.sched.gate.RLock()
	adm.End()
	defer cl.sched.gate.RUnlock()
	if cl.closed.Load() {
		return nil, tr, ErrClosed
	}
	if cl.persist == nil {
		return nil, tr, errNotDurable
	}
	info, err := cl.snapshotSharedTraced(tr.Span())
	cl.metrics.observeOp("snapshot", start, err)
	return info, tr, err
}

// snapshotShared writes one snapshot. The caller holds sched.gate (shared
// or exclusive) — or, during NewCluster, has not yet published the cluster
// — so the resident state cannot change underneath the encoding epoch.
func (cl *Cluster) snapshotShared() (*SnapshotInfo, error) {
	return cl.snapshotSharedTraced(nil)
}

// snapshotSharedTraced is snapshotShared with an optional parent span the
// snapshot phases are recorded under.
func (cl *Cluster) snapshotSharedTraced(parent *obs.Span) (*SnapshotInfo, error) {
	p := cl.persist
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	// Counter reads under the brief lock; they cannot move while we work:
	// seq and walEdges only change on the write path, which the caller's
	// scheduler gate excludes, and snapSeq/lastInfo only change under
	// snapMu, which we hold.
	p.mu.Lock()
	if p.failed != nil {
		err := p.failed
		p.mu.Unlock()
		return nil, err
	}
	seq := p.seq
	if p.lastInfo != nil && seq == p.snapSeq {
		info := *p.lastInfo
		p.mu.Unlock()
		return &info, nil
	}
	snapSeq := p.snapSeq
	// Delta eligibility: a base must exist for the chain to hang off, the
	// resident state must not have been swapped by a full rebuild since,
	// the chain must be under its length limit, and the churn accumulated
	// since the base must be modest — past SnapshotFraction of the base
	// edge count per chain link, replaying the chain approaches the cost of
	// a base, so the snapshot compacts instead. cl.baseM is stable here:
	// it only changes on the write path, which the caller's gate excludes.
	useDelta := p.deltaSnap && p.haveBase && !p.forceBase &&
		p.chainLen < snapshotChainLimit &&
		float64(p.churnBase) <= p.snapFrac*float64(cl.baseM)*snapshotChainLimit
	parentSeq := p.snapSeq
	chainLen := p.chainLen + 1
	churnBase := p.churnBase
	p.mu.Unlock()

	// Nothing committed since the snapshot on disk (possible right after a
	// restore, when lastInfo is not yet cached): if that snapshot still
	// validates, adopt it instead of rewriting it — rewriting a same-seq
	// snapshot would pass through a delete+rename window in which a crash
	// could destroy the only copy.
	if seq == snapSeq {
		if m, err := snapshot.Load(p.dir, seq); err == nil {
			info := infoFromManifest(p.dir, m)
			p.mu.Lock()
			p.lastInfo = &info
			p.mu.Unlock()
			cp := info
			return &cp, nil
		}
	}

	start := time.Now()
	w, err := snapshot.NewWriter(p.dir, seq)
	if err != nil {
		return nil, err
	}
	encodeSpan := parent.StartChild("encode_write")
	var bytes int64
	if cl.remote != nil {
		// The workers encode their blobs inside one read epoch; the
		// coordinator writes them to its own disk (the durable state lives
		// with the coordinator, which is what makes worker recovery and
		// replacement possible).
		blobs, rerr := cl.remote.encodeSnap(useDelta)
		if rerr == nil {
			for r := 0; r < cl.ranks; r++ {
				if rerr = w.WriteRank(r, blobs[r]); rerr != nil {
					break
				}
				bytes += int64(len(blobs[r]))
			}
		}
		err = rerr
	} else {
		prep := cl.prep
		results, rerr := cl.world.RunRead(func(c *mpi.Comm) (any, error) {
			var blob []byte
			c.Compute(func() {
				if useDelta {
					blob = core.EncodePreparedDelta(prep[c.Rank()])
				} else {
					blob = core.EncodePrepared(prep[c.Rank()])
				}
			})
			if err := w.WriteRank(c.Rank(), blob); err != nil {
				return nil, err
			}
			return int64(len(blob)), nil
		})
		if rerr == nil {
			for _, r := range results {
				bytes += r.(int64)
			}
		}
		err = rerr
	}
	encodeSpan.End()
	if err != nil {
		w.Abort()
		return nil, err
	}
	meta := cl.metaNow()
	qr, qc, summa := meta.QR, meta.QC, meta.SUMMA
	tri := cl.lastTri.Load()
	m := snapshot.Manifest{
		AppliedSeq:   seq,
		Ranks:        cl.ranks,
		SUMMA:        summa,
		QR:           qr,
		QC:           qc,
		Enum:         int(cl.enum),
		Triangles:    tri,
		BaseM:        cl.baseM,
		AppliedEdges: cl.appliedEdges,
		Kind:         snapshot.KindBase,
	}
	if useDelta {
		m.Kind = snapshot.KindDelta
		m.ParentSeq = parentSeq
		m.ChainLen = chainLen
		m.ChurnSinceBase = churnBase
	}
	commitSpan := parent.StartChild("commit")
	if err := w.Commit(m); err != nil {
		commitSpan.End()
		w.Abort()
		return nil, err
	}
	commitSpan.End()
	// The snapshot is durable: the dirty row/label sets it consumed reset,
	// so the NEXT delta carries only churn from here on. Safe without the
	// epoch in-process: the caller's gate excludes writers, and readers
	// never touch the tracking maps. Worker-resident state needs an epoch
	// to reach; a failure there is not fatal (the next delta merely carries
	// stale dirtiness, i.e. is larger than necessary).
	if cl.remote != nil {
		if rerr := cl.remote.snapDone(); rerr != nil && cl.remote.logf != nil {
			cl.remote.log("tc2d: snapshot dirty-reset epoch failed (next delta will over-approximate): %v", rerr)
		}
	} else {
		for _, pr := range cl.prep {
			pr.ResetSnapshotDirty()
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rotateSpan := parent.StartChild("rotate")
	err = p.wal.Rotate(seq)
	rotateSpan.End()
	if err != nil {
		// The snapshot is published and valid, but the WAL tail cannot
		// continue safely.
		p.failed = fmt.Errorf("tc2d: WAL rotation after snapshot failed, cluster is no longer durable: %w", err)
		return nil, p.failed
	}
	p.snapSeq = seq
	p.walEdges = 0
	p.snapshots++
	if useDelta {
		p.chainLen = chainLen
		p.deltas++
	} else {
		p.baseSeq = seq
		p.haveBase = true
		p.chainLen = 0
		p.churnBase = 0
		p.forceBase = false
	}
	snapshot.PruneChains(p.dir, snapshotRetention)
	kind := snapshot.KindBase
	if useDelta {
		kind = snapshot.KindDelta
	}
	p.lastInfo = &SnapshotInfo{
		Seq: seq, Path: snapshot.Dir(p.dir, seq), Bytes: bytes, Triangles: tri,
		Kind: kind, ChainLen: m.ChainLen,
	}
	if mm := cl.metrics; mm != nil && mm.reg != nil {
		mm.snapWrites.Inc()
		mm.snapSeconds.Observe(time.Since(start).Seconds())
		mm.snapBytes.Observe(float64(bytes))
		mm.snapLastSeq.Set(float64(seq))
		if useDelta {
			mm.snapDeltaWrites.Inc()
			mm.snapDeltaBytes.Observe(float64(bytes))
		}
	}
	info := *p.lastInfo
	return &info, nil
}

// infoFromManifest rebuilds a SnapshotInfo for an already-published
// snapshot (used when a restore or a no-op Snapshot adopts what is on
// disk rather than writing anew).
func infoFromManifest(dir string, m *snapshot.Manifest) SnapshotInfo {
	var bytes int64
	for _, rf := range m.RankFiles {
		bytes += rf.Size
	}
	kind := m.Kind
	if kind == "" {
		kind = snapshot.KindBase
	}
	return SnapshotInfo{
		Seq: m.AppliedSeq, Path: snapshot.Dir(dir, m.AppliedSeq), Bytes: bytes,
		Triangles: m.Triangles, Kind: kind, ChainLen: m.ChainLen,
	}
}

// persistInfo snapshots the durability stats for ClusterInfo.
func (cl *Cluster) persistInfo() PersistInfo {
	p := cl.persist
	if p == nil {
		return PersistInfo{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	records, bytes := p.wal.Stats()
	return PersistInfo{
		Enabled:         true,
		Dir:             p.dir,
		WALSeq:          p.seq,
		WALRecords:      records,
		WALBytes:        bytes,
		ReplayedBatches: p.replayed,
		Snapshots:       p.snapshots,
		LastSnapshotSeq: p.snapSeq,
		DeltaSnapshots:  p.deltas,
		BaseSnapshotSeq: p.baseSeq,
		ChainLen:        p.chainLen,
		ChurnSinceBase:  p.churnBase,
	}
}

// closePersist releases the WAL handle after the world has come down.
func (cl *Cluster) closePersist() {
	if cl.persist == nil {
		return
	}
	p := cl.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wal.Close()
	if !p.walDone {
		p.walDone = true
		close(p.seqWait)
	}
}

// OpenCluster restores a resident cluster from a persistence directory
// written by a previous process: the newest valid snapshot is loaded — each
// rank reads and decodes its own checksummed blob in parallel; the
// preprocessing pipeline does NOT re-run, so the restored cluster reports
// PreOps == 0 — and the WAL tail beyond the snapshot is replayed through
// the ordinary delta-apply path, reproducing exactly the state of every
// batch acknowledged before the previous process died. A torn record at
// the WAL tail (a crash mid-append) is truncated; a corrupt newest
// snapshot falls back to the previous one, whose WAL segments the
// retention policy kept. Unrecoverable damage fails with
// ErrSnapshotCorrupt; an empty directory with ErrNoSnapshot.
//
// The world shape (rank count, grid schedule, enumeration rule) comes from
// the snapshot manifest; opt supplies everything else (transport, rebuild
// and snapshot policy, MaxVertices, cost model). A non-zero opt.Ranks or
// opt.Enumeration conflicting with the manifest is an error.
// opt.PersistDir is ignored: dir is the persistence directory, and the
// reopened cluster continues appending to its WAL.
func OpenCluster(dir string, opt Options) (*Cluster, error) {
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
	seqs, err := snapshot.List(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, dir)
	}

	// Newest valid snapshot: try manifests newest-first; a candidate whose
	// manifest, delta chain or rank blobs fail validation falls through to
	// the one before — and is deleted, so the retention policy never counts
	// a known-corrupt snapshot toward its quota (keeping it could evict the
	// valid fallback on the next Prune). Its data is unreadable by
	// construction (failed checksums), so nothing recoverable is lost. A
	// delta terminal restores through its whole chain (base blobs first,
	// then each delta in order); a corrupt chain member fails the terminal,
	// and the walk eventually reaches an intact prefix of the chain — or
	// the base itself — whose longer WAL tail replays the difference.
	var lastErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		m, err := snapshot.Load(dir, seqs[i])
		if err == nil {
			var chain []*snapshot.Manifest
			chain, err = loadChain(dir, m)
			if err == nil {
				var cl *Cluster
				cl, err = openFromChain(dir, chain, opt, frac, snapFrac, incFrac)
				if err == nil {
					return cl, nil
				}
				if !errors.Is(err, ErrSnapshotCorrupt) {
					return nil, err
				}
			}
		}
		lastErr = err
		if i > 0 {
			// Only once a fallback remains: a sole corrupt snapshot is
			// kept for post-mortem rather than silently erased.
			snapshot.Remove(dir, seqs[i])
		}
	}
	return nil, lastErr
}

// loadChain resolves the restore chain of a terminal manifest: the base
// snapshot first, then every delta in application order, ending at the
// terminal. A base terminal is a chain of one. A missing, unreadable or
// inconsistent parent makes the whole terminal corrupt — the caller falls
// back to an older snapshot.
func loadChain(dir string, m *snapshot.Manifest) ([]*snapshot.Manifest, error) {
	chain := []*snapshot.Manifest{m}
	for chain[0].IsDelta() {
		if len(chain) > snapshotChainLimit+1 {
			return nil, fmt.Errorf("tc2d: snapshot %d has a delta chain longer than %d: %w",
				m.AppliedSeq, snapshotChainLimit, ErrSnapshotCorrupt)
		}
		parent, err := snapshot.Load(dir, chain[0].ParentSeq)
		if err != nil {
			return nil, fmt.Errorf("tc2d: snapshot %d needs parent %d: %w",
				chain[0].AppliedSeq, chain[0].ParentSeq, err)
		}
		if parent.Ranks != m.Ranks || parent.SUMMA != m.SUMMA || parent.Enum != m.Enum {
			return nil, fmt.Errorf("tc2d: snapshot %d and its parent %d disagree on the world shape: %w",
				chain[0].AppliedSeq, parent.AppliedSeq, ErrSnapshotCorrupt)
		}
		chain = append([]*snapshot.Manifest{parent}, chain...)
	}
	return chain, nil
}

// decodeChain materializes one validated chain (base manifest first, deltas
// in application order) into per-rank prepared state, inside one exclusive
// epoch of world: every rank fetches and decodes its base blob and applies
// each delta blob on top, in parallel. fetch returns the verified blob of
// one chain member for one rank — disk for OpenCluster, the primary's HTTP
// surface for a follower bootstrap. track enables dirty-row tracking for
// clusters that will write delta snapshots of their own (followers don't).
func decodeChain(world *mpi.World, chain []*snapshot.Manifest, fetch func(m *snapshot.Manifest, rank int) ([]byte, error), kthreads int, track bool) ([]*core.Prepared, error) {
	m := chain[len(chain)-1]
	prep := make([]*core.Prepared, m.Ranks)
	_, err := world.Run(func(c *mpi.Comm) (any, error) {
		blob, err := fetch(chain[0], c.Rank())
		if err != nil {
			return nil, err
		}
		var pr *core.Prepared
		var derr error
		c.Compute(func() { pr, derr = core.DecodePrepared(blob, c.Rank(), m.Ranks) })
		if derr != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, derr)
		}
		for _, dm := range chain[1:] {
			dblob, err := fetch(dm, c.Rank())
			if err != nil {
				return nil, err
			}
			var aerr error
			c.Compute(func() { aerr = core.ApplyPreparedDelta(pr, dblob, c.Rank(), m.Ranks) })
			if aerr != nil {
				return nil, fmt.Errorf("%w: applying delta snapshot %d: %v", ErrSnapshotCorrupt, dm.AppliedSeq, aerr)
			}
		}
		// Track dirtiness from the restored state on, so the next snapshot
		// can continue the chain as a delta.
		if track {
			pr.EnableSnapshotTracking()
		}
		pr.SetKernelConfig(kthreads)
		prep[c.Rank()] = pr
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return prep, nil
}

// openFromChain restores from one validated chain (base manifest first,
// deltas in application order, the terminal last): every rank decodes its
// base blob and applies each delta blob on top in parallel, the WAL tail
// beyond the terminal replays, and a serving cluster comes back.
func openFromChain(dir string, chain []*snapshot.Manifest, opt Options, frac, snapFrac, incFrac float64) (*Cluster, error) {
	m := chain[len(chain)-1] // the terminal carries the cluster-level totals
	if opt.Ranks != 0 && opt.Ranks != m.Ranks {
		return nil, fmt.Errorf("tc2d: snapshot was taken on %d ranks, Options.Ranks=%d", m.Ranks, opt.Ranks)
	}
	if opt.Enumeration != 0 && int(opt.Enumeration) != m.Enum {
		return nil, fmt.Errorf("tc2d: snapshot was prepared for %v, Options ask for %v",
			Enumeration(m.Enum), opt.Enumeration)
	}
	kthreads, err := opt.kernelThreads()
	if err != nil {
		return nil, err
	}
	// Restored clusters are observable like fresh ones: resolve the registry
	// before the world is built so the runtime's series land in it too.
	if opt.Metrics == nil {
		opt.Metrics = obs.NewRegistry()
	}
	world, err := opt.newWorld(m.Ranks)
	if err != nil {
		return nil, err
	}
	prep, err := decodeChain(world, chain, func(cm *snapshot.Manifest, rank int) ([]byte, error) {
		return snapshot.ReadRank(dir, cm, rank)
	}, kthreads, true)
	if err != nil {
		world.Close()
		return nil, err
	}

	cl := &Cluster{
		world:               world,
		prep:                prep,
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
		metrics:             newClusterMetrics(opt.Metrics),
	}
	cl.lastTri.Store(m.Triangles)

	// Replay the WAL tail through the ordinary delta-apply path. Layout
	// refreshes (rebuilds) are deliberately NOT replayed — delta counting
	// is exact on any layout — so restore performs zero preprocessing; the
	// carried-over staleness counters let the next live write drain trigger
	// a rebuild if one is due.
	var replayed, walEdges int64
	last, newestBase, haveSegments, err := snapshot.Replay(dir, m.AppliedSeq, func(seq uint64, payload []byte) error {
		batch, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		results, err := world.Run(func(c *mpi.Comm) (any, error) {
			return delta.Apply(c, prep[c.Rank()], batch)
		})
		if err != nil {
			return fmt.Errorf("tc2d: WAL replay of batch %d: %w", seq, err)
		}
		res := results[0].(*delta.Result)
		if cl.lastTri.Load() >= 0 {
			cl.lastTri.Add(res.DeltaTriangles)
		}
		eff := int64(res.Inserted + res.Deleted)
		cl.appliedEdges += eff
		walEdges += eff
		replayed++
		return nil
	})
	if err != nil {
		world.Close()
		return nil, err
	}
	if !haveSegments {
		newestBase = m.AppliedSeq
	}
	wal, err := snapshot.CreateWAL(dir, newestBase, last, !opt.NoWALSync)
	if err != nil {
		world.Close()
		return nil, err
	}
	wal.SetObserver(cl.metrics.walObserver())
	cl.metrics.walReplayed.Add(float64(replayed))
	cl.syncGraphMetrics()
	restoredInfo := infoFromManifest(dir, m)
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
		// Resume the compaction policy where the previous process left off:
		// the chain's base, its current length, and the churn accumulated
		// since the base — including what the WAL replay just re-applied.
		baseSeq:   chain[0].AppliedSeq,
		haveBase:  true,
		chainLen:  len(chain) - 1,
		churnBase: m.ChurnSinceBase + walEdges,
	}
	go cl.writeLoop()
	return cl, nil
}
