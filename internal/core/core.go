// Package core implements the STARK API: spatio-temporal operators
// over partitioned datasets of (STObject, V) pairs.
//
// It is the Go equivalent of STARK's SpatialRDDFunctions DSL. Where
// the Scala original relies on an implicit conversion from
// RDD[(STObject, V)], Go code wraps explicitly:
//
//	events := core.Wrap(pairs)                  // RDD[(STObject, V)] → SpatialDataset
//	inside := events.Where(query, stobject.ContainedBy) // spatio-temporal filter, lazy
//	idx, _ := events.LiveIndex(5, partitioner)  // live indexing, order 5
//	hits, _ := idx.Filter(query, query.Envelope(), stobject.Intersects)
//
// Operators honour spatial partitioning when present: a filter first
// prunes partitions whose extent cannot overlap the query envelope
// and only schedules tasks for the remainder — the execution strategy
// the paper's Figure 4 measures.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/partition"
	"stark/internal/stats"
	"stark/internal/stobject"
)

// Tuple is the record type of all STARK datasets: the spatio-temporal
// key plus the user payload.
type Tuple[V any] = engine.Pair[stobject.STObject, V]

// SpatialDataset wraps an engine dataset of (STObject, V) records and
// provides the spatio-temporal operators. A SpatialDataset may carry
// a SpatialPartitioner, in which case partition i of the underlying
// dataset holds exactly the objects the partitioner assigns to i and
// queries can prune partitions by extent.
type SpatialDataset[V any] struct {
	ds *engine.Dataset[Tuple[V]]
	sp partition.SpatialPartitioner // nil when not spatially partitioned

	// xOrdered marks rows that PartitionBy ordered by x in every
	// partition, all keys points: a scan skips each batch whose x range
	// misses its prune envelope.
	xOrdered bool

	// rec, when non-nil, is the recorder the dataset's operators
	// charge their metrics to (see WithRecorder); nil selects the
	// context's root recorder.
	rec *engine.Recorder

	// aux holds the memoised per-instance caches. It is a separate
	// pointer so recorder views (WithRecorder) share the caches of the
	// dataset they overlay: attribution changes, memoised work does
	// not repeat.
	aux *spatialAux[V]
}

// spatialAux carries the caches bound to one logical SpatialDataset
// instance. Every transformation returns a fresh SpatialDataset with
// a fresh aux, so a summary or sidecar can never describe a stale
// layout: repartitioning or filtering invalidates by construction.
type spatialAux[V any] struct {
	// stats memoises the planner statistics. statsSeeded marks a
	// summary handed in by SeedStats (mutable snapshots): it lacks
	// per-field statistics but must never trigger a rescan.
	statsMu     sync.Mutex
	stats       *stats.Summary
	statsSeeded bool

	// col is the columnar sidecar built by BuildColumnar.
	colMu sync.Mutex
	col   *columnarSidecar[V]

	// schema is the registered attribute schema; attrSide holds the
	// lazily built per-partition attribute postings (see attr.go).
	attrMu   sync.Mutex
	schema   *attr.Schema[V]
	attrSide *attrSidecar[V]
}

// newSpatial builds a SpatialDataset with a fresh aux.
func newSpatial[V any](ds *engine.Dataset[Tuple[V]], sp partition.SpatialPartitioner, rec *engine.Recorder) *SpatialDataset[V] {
	return &SpatialDataset[V]{ds: ds, sp: sp, rec: rec, aux: &spatialAux[V]{}}
}

// Wrap lifts a plain engine dataset into a SpatialDataset — the
// explicit counterpart of STARK's implicit RDD conversion. The data
// is assumed not to be spatially partitioned.
func Wrap[V any](ds *engine.Dataset[Tuple[V]]) *SpatialDataset[V] {
	return newSpatial(ds, nil, nil)
}

// WrapPartitioned lifts a dataset that is already partitioned by sp.
// The caller asserts that partition i holds exactly the records with
// sp.PartitionFor(key) == i.
func WrapPartitioned[V any](ds *engine.Dataset[Tuple[V]], sp partition.SpatialPartitioner) (*SpatialDataset[V], error) {
	if sp != nil && ds.NumPartitions() != sp.NumPartitions() {
		return nil, fmt.Errorf("core: dataset has %d partitions, partitioner %d",
			ds.NumPartitions(), sp.NumPartitions())
	}
	return newSpatial(ds, sp, nil), nil
}

// recorder returns the recorder operators on this dataset charge: the
// context's root recorder unless WithRecorder installed another.
func (s *SpatialDataset[V]) recorder() *engine.Recorder {
	if s.rec != nil {
		return s.rec
	}
	return s.ds.Context().Recorder()
}

// WithRecorder returns a view of the dataset whose operators charge
// their metrics (tasks, scanned elements, probes, kernel counters) to
// rec instead of the context's root recorder. The view shares the
// receiver's partitions, cache state, statistics and columnar sidecar
// — it is an attribution overlay, not a new dataset. A nil rec
// returns the receiver unchanged.
func (s *SpatialDataset[V]) WithRecorder(rec *engine.Recorder) *SpatialDataset[V] {
	if rec == nil || s.rec == rec {
		return s
	}
	return &SpatialDataset[V]{ds: s.ds.WithRecorder(rec), sp: s.sp, xOrdered: s.xOrdered, rec: rec, aux: s.aux}
}

// Dataset returns the underlying engine dataset.
func (s *SpatialDataset[V]) Dataset() *engine.Dataset[Tuple[V]] { return s.ds }

// Partitioner returns the spatial partitioner, or nil.
func (s *SpatialDataset[V]) Partitioner() partition.SpatialPartitioner { return s.sp }

// NumPartitions returns the partition count of the underlying data.
func (s *SpatialDataset[V]) NumPartitions() int { return s.ds.NumPartitions() }

// Context returns the engine context.
func (s *SpatialDataset[V]) Context() *engine.Context { return s.ds.Context() }

// Collect materialises all records.
func (s *SpatialDataset[V]) Collect() ([]Tuple[V], error) { return s.ds.Collect() }

// Count returns the number of records.
func (s *SpatialDataset[V]) Count() (int64, error) { return s.ds.Count() }

// Cache marks the underlying dataset for in-memory materialisation.
func (s *SpatialDataset[V]) Cache() *SpatialDataset[V] {
	s.ds.Cache()
	return s
}

// PartitionBy shuffles the dataset with the given spatial partitioner
// and returns a spatially partitioned SpatialDataset — the DSL's
// rdd.partitionBy(gridPartitioner) step. It fixes the memory layout the
// scans run over: the shuffle leaves each partition's rows in source
// order (see engine.PartitionBy), and a partition whose keys are all
// points is then ordered by x, ties in that order, so two shuffles of
// one input are still equal row for row.
func (s *SpatialDataset[V]) PartitionBy(sp partition.SpatialPartitioner) (*SpatialDataset[V], error) {
	if sp == nil {
		return nil, fmt.Errorf("core: nil partitioner")
	}
	shuffled, err := engine.PartitionBy(s.ds, engine.Partitioner[stobject.STObject](spAdapter{sp}))
	if err != nil {
		return nil, err
	}
	ordered := make([]bool, shuffled.NumPartitions())
	err = s.Context().RunJobRecorder(nil, s.rec, engine.AllPartitions(len(ordered)), func(p int) error {
		rows, err := shuffled.ComputePartition(p) // the shuffle's own slice, not yet shared
		ordered[p] = err == nil && orderByX(rows)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := newSpatial(shuffled, sp, s.rec)
	out.xOrdered = !slices.Contains(ordered, false)
	return out, nil
}

// orderByX sorts rows by the x of their point keys, a NaN first and ties
// in row order. It leaves rows as they are and reports false when a key
// is not a point.
func orderByX[V any](rows []Tuple[V]) bool {
	type xAt struct {
		x float64
		i int
	}
	keys := make([]xAt, len(rows))
	for i := range rows {
		p, ok := rows[i].Key.Point()
		if !ok {
			return false
		}
		keys[i] = xAt{p.X, i}
	}
	slices.SortFunc(keys, func(a, b xAt) int { return cmp.Or(cmp.Compare(a.x, b.x), a.i-b.i) })
	sorted := make([]Tuple[V], len(rows))
	for d, k := range keys {
		sorted[d] = rows[k.i]
	}
	copy(rows, sorted)
	return true
}

// spAdapter adapts a SpatialPartitioner to engine.Partitioner.
type spAdapter struct{ sp partition.SpatialPartitioner }

func (a spAdapter) NumPartitions() int                   { return a.sp.NumPartitions() }
func (a spAdapter) PartitionFor(o stobject.STObject) int { return a.sp.PartitionFor(o) }

// Stats returns the planner statistics of the dataset — per-partition
// MBRs, counts, temporal extents and the spatial histogram — computed
// in one streaming pass on first use and cached on this dataset
// instance. visit lists the partitions that can hold records (nil:
// all), the pruning the dataset's own filters left behind: the pass
// skips every other partition and summarises it as empty, which it is.
func (s *SpatialDataset[V]) Stats(visit []int) (*stats.Summary, error) {
	var fields []attr.Field[V]
	s.aux.attrMu.Lock()
	if s.aux.schema != nil {
		fields = s.aux.schema.Fields()
	}
	s.aux.attrMu.Unlock()
	s.aux.statsMu.Lock()
	defer s.aux.statsMu.Unlock()
	// A summary collected before the schema was registered lacks
	// per-field statistics; recollect so attribute predicates get real
	// selectivities — unless the summary was seeded (a mutable
	// snapshot's incrementally maintained stats must never trigger a
	// rescan; attr selectivities fall back to defaults there).
	if sum := s.aux.stats; sum != nil && (len(fields) == 0 || sum.Fields != nil || s.aux.statsSeeded) {
		return sum, nil
	}
	sum, err := stats.CollectFields(s.ds, visit, 0, fields)
	if err != nil {
		return nil, err
	}
	s.aux.stats = sum
	return sum, nil
}

// SeedStats primes the statistics cache with a pre-computed summary.
// Mutable datasets use it to hand their incrementally maintained
// statistics to the planner, so compiling a query against a snapshot
// never rescans the data.
func (s *SpatialDataset[V]) SeedStats(sum *stats.Summary) {
	if sum == nil {
		return
	}
	s.aux.statsMu.Lock()
	defer s.aux.statsMu.Unlock()
	s.aux.stats = sum
	s.aux.statsSeeded = true
}

// SetSchema registers the attribute schema of the dataset's payloads:
// the typed field extractors the planner's per-field statistics, the
// attribute postings indexes and the typed filter paths all read
// through. Like the other aux state it binds to this dataset instance;
// transformations return fresh instances without a schema.
func (s *SpatialDataset[V]) SetSchema(sch *attr.Schema[V]) {
	s.aux.attrMu.Lock()
	s.aux.schema = sch
	s.aux.attrMu.Unlock()
}

// relevantPartitions returns the partitions a query with the given
// envelope must visit, counting pruned partitions in the metrics.
// Without a partitioner every partition is visited.
func (s *SpatialDataset[V]) relevantPartitions(q geom.Envelope) []int {
	if s.sp == nil {
		return engine.AllPartitions(s.ds.NumPartitions())
	}
	visit := partition.PruneByEnvelope(s.sp, q)
	pruned := s.ds.NumPartitions() - len(visit)
	if pruned > 0 {
		s.recorder().Add(engine.TasksSkipped, int64(pruned))
	}
	return visit
}
