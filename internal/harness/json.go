package harness

import (
	"encoding/json"
	"io"
	"time"
)

// jsonRun is one machine-readable measurement of the benchmark trajectory.
type jsonRun struct {
	Dataset       string  `json:"dataset"`
	Ranks         int     `json:"ranks"`
	N             int64   `json:"n"`
	M             int64   `json:"m"`
	Triangles     int64   `json:"triangles"`
	PreprocessSec float64 `json:"preprocess_s"`
	CountSec      float64 `json:"count_s"`
	TotalSec      float64 `json:"total_s"`
	CommFracPre   float64 `json:"comm_frac_pre"`
	CommFracCount float64 `json:"comm_frac_count"`
	PreOps        int64   `json:"pre_ops"`
	Probes        int64   `json:"probes"`
	MapTasks      int64   `json:"map_tasks"`
	SpeedupAll    float64 `json:"speedup_all"`
	WallSec       float64 `json:"wall_s"`
}

// jsonUpdateRun is one machine-readable measurement of the dynamic-update
// scenario (schema v2).
type jsonUpdateRun struct {
	Dataset       string  `json:"dataset"`
	Ranks         int     `json:"ranks"`
	BatchSize     int     `json:"batch_size"`
	Batches       int     `json:"batches"`
	N             int64   `json:"n"`
	M             int64   `json:"m"`
	Triangles     int64   `json:"triangles"`
	ApplySec      float64 `json:"apply_s"`
	UpdatesPerSec float64 `json:"updates_per_s"`
	QuerySec      float64 `json:"query_s"`
	PrepSec       float64 `json:"build_s"`
	DeltaSpeedup  float64 `json:"delta_speedup"`
	WallSec       float64 `json:"wall_s"`
}

// jsonConcurrentRun is one machine-readable measurement of the concurrent
// scheduler scenario (schema v3). All times are wall-clock: the scenario
// measures the epoch scheduler's real throughput, not the cost model.
type jsonConcurrentRun struct {
	Dataset         string  `json:"dataset"`
	Ranks           int     `json:"ranks"`
	Readers         int     `json:"readers"`
	Writers         int     `json:"writers"`
	BatchSize       int     `json:"batch_size"`
	Queries         int     `json:"queries"`
	Batches         int     `json:"batches"`
	ReadQPS         float64 `json:"read_qps"`
	ReadLatencySec  float64 `json:"read_latency_s"`
	WriteLatencySec float64 `json:"write_batch_latency_s"`
	ReadCoalescing  float64 `json:"read_coalescing"`
	WriteCoalescing float64 `json:"write_coalescing"`
	Triangles       int64   `json:"triangles"`
	WallSec         float64 `json:"wall_s"`
}

// jsonGrowthPoint is one batch of a growth run's overflow-fraction sweep.
type jsonGrowthPoint struct {
	OverflowFraction float64 `json:"overflow_fraction"`
	ApplySec         float64 `json:"apply_s"`
}

// jsonGrowthRun is one machine-readable measurement of the vertex-arrival
// scenario (schema v4): an elastic resident cluster absorbing batches that
// wire brand-new vertex ids, then folding the overflow with one rebuild.
type jsonGrowthRun struct {
	Dataset          string            `json:"dataset"`
	Ranks            int               `json:"ranks"`
	BatchSize        int               `json:"batch_size"`
	Batches          int               `json:"batches"`
	N0               int64             `json:"n0"`
	N                int64             `json:"n"`
	M                int64             `json:"m"`
	Triangles        int64             `json:"triangles"`
	OverflowFraction float64           `json:"overflow_fraction"`
	ApplySec         float64           `json:"apply_s"`
	EdgesPerSec      float64           `json:"edges_per_s"`
	FoldSec          float64           `json:"fold_s"`
	Sweep            []jsonGrowthPoint `json:"sweep,omitempty"`
	WallSec          float64           `json:"wall_s"`
}

// jsonKernelRun is one machine-readable measurement of the intra-rank
// kernel scenario (schema v5; v9 dropped the per-mode fields): one counting
// epoch at one kernel worker count over a fixed resident state. Wall
// seconds are real time — kernel threading shrinks wall time, not modeled
// virtual time — and the counters are exactness evidence: they must not
// vary with the thread count.
type jsonKernelRun struct {
	Dataset   string  `json:"dataset"`
	Ranks     int     `json:"ranks"`
	Threads   int     `json:"threads"`
	Triangles int64   `json:"triangles"`
	CountSec  float64 `json:"count_s"`
	WallSec   float64 `json:"wall_s"`
	Speedup   float64 `json:"speedup"`
	Probes    int64   `json:"probes"`
	MapTasks  int64   `json:"map_tasks"`
}

// jsonRuntimeStat is one scenario's runtime self-observation (schema v6):
// the benchmark process watching itself — heap high-water, allocation
// volume, GC work — plus the delta of the resident cluster's metric
// registry for scenarios that run one. It makes memory/GC regressions part
// of the cross-PR perf trajectory, not just wall time.
type jsonRuntimeStat struct {
	Scenario      string             `json:"scenario"`
	WallSec       float64            `json:"wall_s"`
	PeakHeapBytes uint64             `json:"peak_heap_bytes"`
	AllocBytes    uint64             `json:"alloc_bytes"`
	GCCycles      uint32             `json:"gc_cycles"`
	GCPauseSec    float64            `json:"gc_pause_s"`
	MetricsDelta  map[string]float64 `json:"metrics_delta,omitempty"`
}

// jsonMaintenanceRun is one machine-readable measurement of the
// maintenance scenario (schema v7): one durable cluster absorbing a churn
// batch, snapshotting and rebuilding under one of the four maintenance
// configurations. The ratios compare the post-churn rebuild/snapshot cost
// against the boot-time full build and base snapshot.
type jsonMaintenanceRun struct {
	Dataset     string  `json:"dataset"`
	Ranks       int     `json:"ranks"`
	ChurnFrac   float64 `json:"churn_frac"`
	ChurnEdges  int     `json:"churn_edges"`
	Incremental bool    `json:"incremental"`
	DeltaSnap   bool    `json:"delta_snapshot"`
	BuildOps    int64   `json:"build_ops"`
	RebuildOps  int64   `json:"rebuild_ops"`
	OpsRatio    float64 `json:"ops_ratio"`
	MovedRows   int64   `json:"moved_rows"`
	BaseBytes   int64   `json:"base_bytes"`
	SnapBytes   int64   `json:"snapshot_bytes"`
	BytesRatio  float64 `json:"bytes_ratio"`
	SnapshotSec float64 `json:"snapshot_s"`
	RebuildSec  float64 `json:"rebuild_s"`
	Triangles   int64   `json:"triangles"`
	WallSec     float64 `json:"wall_s"`
}

// jsonReplicaRun is one machine-readable measurement of the replication
// scenario (schema v8): one durable primary under a single-writer update
// stream with R WAL-shipping followers serving the read workload. The
// followers=0 row is the baseline the primary's write-throughput delta
// and read-QPS scaling are judged against.
type jsonReplicaRun struct {
	Dataset         string  `json:"dataset"`
	Ranks           int     `json:"ranks"`
	Followers       int     `json:"followers"`
	BatchSize       int     `json:"batch_size"`
	Queries         int     `json:"queries"`
	Batches         int     `json:"batches"`
	ReadQPS         float64 `json:"read_qps"`
	WriteBatchesPS  float64 `json:"write_batches_per_s"`
	WriteLatencySec float64 `json:"write_batch_latency_s"`
	LagSeqMean      float64 `json:"lag_seq_mean"`
	LagSeqMax       int64   `json:"lag_seq_max"`
	ConvergeMS      float64 `json:"converge_ms"`
	BootstrapBytes  int64   `json:"bootstrap_bytes"`
	WALBytes        int64   `json:"wal_shipped_bytes"`
	Frames          int64   `json:"wal_frames"`
	Triangles       int64   `json:"triangles"`
	WallSec         float64 `json:"wall_s"`
}

// jsonDoc is the envelope written by WriteBenchJSON; the schema is the
// contract for the BENCH_*.json perf-trajectory records kept across PRs.
// Schema v2 added the update_runs section; v3 added concurrent_runs (the
// reader/writer scheduler scenario); v4 added growth_runs (the elastic
// vertex-space scenario); v5 added kernel_runs (the intra-rank parallel
// kernel sweep); v6 added runtime (per-scenario self-observation of the
// benchmark process: peak heap, GC pauses, registry deltas — absent or
// empty when nothing was observed); v7 added maintenance_runs (the
// churn-proportional rebuild/snapshot scenario); v8 added replica_runs (the
// WAL-shipping read-replica scenario); v9 drops kernel_runs' per-mode
// fields (the kernel has one intersection routine). Readers that ignore
// unknown fields still parse older sections.
type jsonDoc struct {
	SchemaVersion int       `json:"schema_version"`
	Generated     time.Time `json:"generated"`
	CostModel     struct {
		Alpha    float64 `json:"alpha_s"`
		Beta     float64 `json:"beta_bytes_per_s"`
		Overhead float64 `json:"overhead_s"`
	} `json:"cost_model"`
	Runs            []jsonRun            `json:"runs"`
	UpdateRuns      []jsonUpdateRun      `json:"update_runs,omitempty"`
	ConcurrentRuns  []jsonConcurrentRun  `json:"concurrent_runs,omitempty"`
	GrowthRuns      []jsonGrowthRun      `json:"growth_runs,omitempty"`
	KernelRuns      []jsonKernelRun      `json:"kernel_runs,omitempty"`
	MaintenanceRuns []jsonMaintenanceRun `json:"maintenance_runs,omitempty"`
	ReplicaRuns     []jsonReplicaRun     `json:"replica_runs,omitempty"`
	Runtime         []jsonRuntimeStat    `json:"runtime,omitempty"`
}

// WriteBenchJSON emits the benchmark measurements as a machine-readable
// JSON document: one record per (dataset, ranks) scaling point with the
// triangle count, parallel phase times, communication fractions, operation
// counters and real wall time, plus one record per dynamic-update,
// concurrent-scheduler, vertex-growth, kernel-sweep and maintenance
// scenario point, and one runtime self-observation record per scenario
// that ran.
func WriteBenchJSON(w io.Writer, rows []ScalingRow, upd []UpdateRow, conc []ConcurrentRow, growth []GrowthRow, kernel []KernelRow, maint []MaintenanceRow, repl []ReplicaRow, rt []RuntimeStat, cfg Config) error {
	var doc jsonDoc
	doc.SchemaVersion = 9
	doc.Generated = time.Now().UTC()
	m := cfg.model()
	doc.CostModel.Alpha = m.Alpha
	doc.CostModel.Beta = m.Beta
	doc.CostModel.Overhead = m.Overhead
	doc.Runs = make([]jsonRun, 0, len(rows))
	for _, r := range rows {
		doc.Runs = append(doc.Runs, jsonRun{
			Dataset:       r.Dataset,
			Ranks:         r.Ranks,
			N:             r.N,
			M:             r.M,
			Triangles:     r.Triangles,
			PreprocessSec: r.PPT,
			CountSec:      r.TCT,
			TotalSec:      r.Overall,
			CommFracPre:   r.FracPre,
			CommFracCount: r.FracTCT,
			PreOps:        r.PreOps,
			Probes:        r.Probes,
			MapTasks:      r.MapTasks,
			SpeedupAll:    r.SpeedAll,
			WallSec:       r.WallSec,
		})
	}
	for _, r := range upd {
		doc.UpdateRuns = append(doc.UpdateRuns, jsonUpdateRun{
			Dataset:       r.Dataset,
			Ranks:         r.Ranks,
			BatchSize:     r.BatchSize,
			Batches:       r.Batches,
			N:             r.N,
			M:             r.M,
			Triangles:     r.Triangles,
			ApplySec:      r.ApplySec,
			UpdatesPerSec: r.UpdatesPerSec,
			QuerySec:      r.QuerySec,
			PrepSec:       r.PrepSec,
			DeltaSpeedup:  r.DeltaSpeedup,
			WallSec:       r.WallSec,
		})
	}
	for _, r := range conc {
		doc.ConcurrentRuns = append(doc.ConcurrentRuns, jsonConcurrentRun{
			Dataset:         r.Dataset,
			Ranks:           r.Ranks,
			Readers:         r.Readers,
			Writers:         r.Writers,
			BatchSize:       r.BatchSize,
			Queries:         r.Queries,
			Batches:         r.Batches,
			ReadQPS:         r.ReadQPS,
			ReadLatencySec:  r.ReadLatencySec,
			WriteLatencySec: r.WriteLatencySec,
			ReadCoalescing:  r.ReadCoalescing,
			WriteCoalescing: r.WriteCoalescing,
			Triangles:       r.Triangles,
			WallSec:         r.WallSec,
		})
	}
	for _, r := range growth {
		run := jsonGrowthRun{
			Dataset:          r.Dataset,
			Ranks:            r.Ranks,
			BatchSize:        r.BatchSize,
			Batches:          r.Batches,
			N0:               r.N0,
			N:                r.N,
			M:                r.M,
			Triangles:        r.Triangles,
			OverflowFraction: r.Overflow,
			ApplySec:         r.ApplySec,
			EdgesPerSec:      r.EdgesPerS,
			FoldSec:          r.FoldSec,
			WallSec:          r.WallSec,
		}
		for _, pt := range r.Sweep {
			run.Sweep = append(run.Sweep, jsonGrowthPoint{OverflowFraction: pt.OverflowFrac, ApplySec: pt.ApplySec})
		}
		doc.GrowthRuns = append(doc.GrowthRuns, run)
	}
	for _, r := range kernel {
		doc.KernelRuns = append(doc.KernelRuns, jsonKernelRun{
			Dataset:   r.Dataset,
			Ranks:     r.Ranks,
			Threads:   r.Threads,
			Triangles: r.Triangles,
			CountSec:  r.CountSec,
			WallSec:   r.WallSec,
			Speedup:   r.Speedup,
			Probes:    r.Probes,
			MapTasks:  r.MapTasks,
		})
	}
	for _, r := range maint {
		doc.MaintenanceRuns = append(doc.MaintenanceRuns, jsonMaintenanceRun{
			Dataset:     r.Dataset,
			Ranks:       r.Ranks,
			ChurnFrac:   r.ChurnFrac,
			ChurnEdges:  r.ChurnEdges,
			Incremental: r.Incremental,
			DeltaSnap:   r.DeltaSnap,
			BuildOps:    r.BuildOps,
			RebuildOps:  r.RebuildOps,
			OpsRatio:    r.OpsRatio,
			MovedRows:   r.MovedRows,
			BaseBytes:   r.BaseBytes,
			SnapBytes:   r.SnapBytes,
			BytesRatio:  r.BytesRatio,
			SnapshotSec: r.SnapshotSec,
			RebuildSec:  r.RebuildSec,
			Triangles:   r.Triangles,
			WallSec:     r.WallSec,
		})
	}
	for _, r := range repl {
		doc.ReplicaRuns = append(doc.ReplicaRuns, jsonReplicaRun{
			Dataset:         r.Dataset,
			Ranks:           r.Ranks,
			Followers:       r.Followers,
			BatchSize:       r.BatchSize,
			Queries:         r.Queries,
			Batches:         r.Batches,
			ReadQPS:         r.ReadQPS,
			WriteBatchesPS:  r.WriteBatchesPS,
			WriteLatencySec: r.WriteLatencySec,
			LagSeqMean:      r.LagSeqMean,
			LagSeqMax:       r.LagSeqMax,
			ConvergeMS:      r.ConvergeMS,
			BootstrapBytes:  r.BootstrapBytes,
			WALBytes:        r.WALBytes,
			Frames:          r.Frames,
			Triangles:       r.Triangles,
			WallSec:         r.WallSec,
		})
	}
	for _, r := range rt {
		doc.Runtime = append(doc.Runtime, jsonRuntimeStat{
			Scenario:      r.Scenario,
			WallSec:       r.WallSec,
			PeakHeapBytes: r.PeakHeapBytes,
			AllocBytes:    r.AllocBytes,
			GCCycles:      r.GCCycles,
			GCPauseSec:    r.GCPauseSec,
			MetricsDelta:  r.MetricsDelta,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
