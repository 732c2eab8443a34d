package bench

// This file re-implements, on the common engine substrate,
// the join strategies of the two systems the paper compares STARK
// against in its Figure 4 micro-benchmark: GeoSpark (Yu et al.,
// SIGSPATIAL 2015) and SpatialSpark (You et al., ICDEW 2015).
//
// The point of the comparison is strategy, not implementation
// maturity, so each baseline reproduces the *algorithmic* decisions
// that drive its Figure-4 behaviour:
//
//   - GeoSpark joins require a spatial partitioner (its unpartitioned
//     column in Figure 4 is N/A). Partitioning replicates every object
//     into each cell its (ε-expanded) envelope overlaps; matching
//     pairs can therefore be produced in several cells and must be
//     deduplicated afterwards. Skipping the deduplication — toggled
//     with Dedupe=false — reproduces the unstable result counts the
//     paper observed for GeoSpark under two of its partitioners.
//
//   - SpatialSpark joins do not prune partitions. Unpartitioned, every
//     pair of partitions is joined with a freshly built per-pair index
//     (its "broadcast" join has no per-partition tree reuse).
//     Spatially partitioned (its Tile mode), records are first
//     replicated and shuffled; on skewed data the densest tile
//     dominates one task while the shuffle and deduplication add
//     cost — which is why Figure 4 shows SpatialSpark getting *slower*
//     with its best partitioner (31.1 s → 95.9 s).
//
// STARK itself (internal/core) assigns objects to a single partition,
// adjusts extents instead of replicating, prunes partition pairs by
// extent, and reuses one live R-tree per partition — the combination
// Figure 4 credits for its win.

import (
	"fmt"
	"sort"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/index"
	"stark/internal/partition"
	"stark/internal/stobject"
)

// Tuple is the record type of the benchmark datasets.
type Tuple = engine.Pair[stobject.STObject, int]

// PartitionerKind selects the spatial partitioner of a baseline run.
type PartitionerKind int

const (
	// NoPartitioner disables spatial partitioning.
	NoPartitioner PartitionerKind = iota
	// TilePartitioner is the equal-grid partitioner with replication
	// (SpatialSpark's best partitioner in Figure 4).
	TilePartitioner
	// VoronoiPartitioner samples seeds and assigns by proximity
	// (GeoSpark's best partitioner in Figure 4).
	VoronoiPartitioner
)

// String names the kind.
func (k PartitionerKind) String() string {
	switch k {
	case NoPartitioner:
		return "none"
	case TilePartitioner:
		return "tile"
	case VoronoiPartitioner:
		return "voronoi"
	default:
		return fmt.Sprintf("partitioner(%d)", int(k))
	}
}

// SelfJoinConfig configures a baseline self join: find all pairs
// within Eps of each other (the Figure-4 workload).
type SelfJoinConfig struct {
	// Eps is the withinDistance threshold.
	Eps float64
	// Partitioner selects the spatial partitioning strategy.
	Partitioner PartitionerKind
	// PPD is the tiles-per-dimension for TilePartitioner (default 8).
	PPD int
	// NumSeeds is the seed count for VoronoiPartitioner (default 64).
	NumSeeds int
	// Seed drives Voronoi seed sampling.
	Seed int64
	// Dedupe controls duplicate elimination after a replicating
	// partitioner. GeoSpark's result-count instability is reproduced
	// by setting it to false.
	Dedupe bool
	// IndexOrder is the order of local R-trees (default 10).
	IndexOrder int
}

func (c SelfJoinConfig) withDefaults() SelfJoinConfig {
	if c.PPD <= 0 {
		c.PPD = 8
	}
	if c.NumSeeds <= 0 {
		c.NumSeeds = 64
	}
	if c.IndexOrder <= 0 {
		c.IndexOrder = index.DefaultOrder
	}
	return c
}

// pairKey canonicalises an (id, id) match for deduplication.
type pairKey struct{ a, b int }

func canonical(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// localIndexedSelfJoin finds all within-eps pairs inside one bucket
// using a bulk-loaded R-tree, emitting each unordered pair once per
// bucket (i <= j, by slice position) plus self pairs.
func localIndexedSelfJoin(items []Tuple, eps float64, order int, emit func(i, j int)) {
	if len(items) == 0 {
		return
	}
	tree := index.New(order)
	for i, kv := range items {
		_ = tree.Insert(kv.Key.Envelope(), int32(i))
	}
	tree.Build()
	var buf []int32
	for i, kv := range items {
		buf = tree.Query(kv.Key.Envelope().ExpandBy(eps), buf[:0])
		for _, j := range buf {
			if int(j) < i {
				continue // emit unordered pairs once
			}
			if kv.Key.WithinDistance(items[j].Key, eps, nil) {
				emit(i, int(j))
			}
		}
	}
}

// repMember is one bucket entry after replication: the record plus
// whether this bucket is the record's home partition.
type repMember struct {
	t     Tuple
	local bool
}

// GeoSparkSelfJoin runs the GeoSpark-style strategy and returns the
// number of result pairs (unordered, including self pairs when
// deduplicated; raw emitted count otherwise). It returns an error
// when cfg.Partitioner is NoPartitioner: GeoSpark's join requires a
// spatial partitioner (the N/A cell of Figure 4).
//
// Deduplication uses GeoSpark's reference-point technique: a pair is
// emitted only in the home bucket of its smaller-ID element, so no
// global duplicate-elimination pass is needed. Every within-eps pair
// is found in that bucket because the partner's ε-expanded envelope
// always overlaps it.
func GeoSparkSelfJoin(ctx *engine.Context, tuples []Tuple, cfg SelfJoinConfig) (int64, error) {
	cfg = cfg.withDefaults()
	if cfg.Partitioner == NoPartitioner {
		return 0, fmt.Errorf("baselines: GeoSpark join requires a spatial partitioner (N/A in Figure 4)")
	}
	buckets, err := replicate(ctx, tuples, cfg)
	if err != nil {
		return 0, err
	}

	// Local join per bucket, in parallel.
	counts := make([]int64, len(buckets))
	tasks := make([]int, len(buckets))
	for i := range tasks {
		tasks[i] = i
	}
	err = ctx.RunJob(tasks, func(b int) error {
		members := buckets[b]
		items := make([]Tuple, len(members))
		for i, m := range members {
			items[i] = m.t
		}
		var n int64
		localIndexedSelfJoin(items, cfg.Eps, cfg.IndexOrder, func(i, j int) {
			if cfg.Dedupe {
				// Reference point: count only in the home bucket of
				// the smaller-ID element.
				ref := i
				if members[j].t.Value < members[i].t.Value {
					ref = j
				}
				if members[ref].local {
					n++
				}
				return
			}
			// The buggy mode: replicated pairs are counted once per
			// bucket that discovered them.
			n++
		})
		counts[b] = n
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// replicate routes every tuple into each bucket its ε-expanded
// envelope overlaps, under the configured replicating partitioner.
// Each bucket entry records whether the bucket is the record's home
// partition (used by reference-point deduplication).
func replicate(ctx *engine.Context, tuples []Tuple, cfg SelfJoinConfig) ([][]repMember, error) {
	objs := make([]stobject.STObject, len(tuples))
	for i, kv := range tuples {
		objs[i] = kv.Key
	}
	var (
		numParts int
		homeFor  func(o stobject.STObject) int
		cellsFor func(env geom.Envelope) []int
	)
	switch cfg.Partitioner {
	case TilePartitioner:
		tile, err := partition.NewTile(cfg.PPD, objs)
		if err != nil {
			return nil, err
		}
		numParts = tile.NumPartitions()
		homeFor = tile.PartitionFor
		cellsFor = func(env geom.Envelope) []int {
			return tile.PartitionsFor(stobject.New(env.ToPolygon()))
		}
	case VoronoiPartitioner:
		vor, err := partition.NewVoronoi(cfg.NumSeeds, cfg.Seed, objs)
		if err != nil {
			return nil, err
		}
		numParts = vor.NumPartitions()
		homeFor = vor.PartitionFor
		// GeoSpark keeps an R-tree over the partition extents so
		// replication targets are found in O(log p) per object.
		extTree := index.New(index.DefaultOrder)
		for i := 0; i < numParts; i++ {
			if ext := vor.Extent(i); !ext.IsEmpty() {
				_ = extTree.Insert(ext, int32(i))
			}
		}
		extTree.Build()
		cellsFor = func(env geom.Envelope) []int {
			ids := extTree.Query(env, nil)
			out := make([]int, len(ids))
			for i, id := range ids {
				out[i] = int(id)
			}
			return out
		}
	default:
		return nil, fmt.Errorf("baselines: unsupported partitioner %v", cfg.Partitioner)
	}

	// Shuffle with replication; expanding by eps guarantees that any
	// within-eps pair shares at least one bucket (each object's
	// expanded envelope covers its partner's location, which lies in
	// whatever bucket the partner landed in).
	pairs := engine.FlatMap(
		engine.Parallelize(ctx, tuples, ctx.Parallelism()),
		func(kv Tuple) []engine.Pair[int, repMember] {
			home := homeFor(kv.Key)
			cells := cellsFor(kv.Key.Envelope().ExpandBy(cfg.Eps))
			out := make([]engine.Pair[int, repMember], 0, len(cells)+1)
			seenHome := false
			for _, c := range cells {
				if c == home {
					seenHome = true
				}
				out = append(out, engine.NewPair(c, repMember{t: kv, local: c == home}))
			}
			if !seenHome {
				out = append(out, engine.NewPair(home, repMember{t: kv, local: true}))
			}
			return out
		})
	shuffled, err := engine.PartitionBy(pairs, engine.FuncPartitioner[int]{
		N:  numParts,
		Fn: func(c int) int { return c },
	})
	if err != nil {
		return nil, err
	}
	buckets := make([][]repMember, numParts)
	for p := 0; p < numParts; p++ {
		part, err := shuffled.ComputePartition(p)
		if err != nil {
			return nil, err
		}
		bucket := make([]repMember, len(part))
		for i, kv := range part {
			bucket[i] = kv.Value
		}
		buckets[p] = bucket
	}
	return buckets, nil
}

// SpatialSparkSelfJoin runs the SpatialSpark-style strategy.
//
// Unpartitioned: every (left, right) partition pair of the raw data
// is joined with a per-pair R-tree built from scratch — no partition
// pruning, no tree reuse, matching the broadcast join's repeated
// index construction.
//
// With TilePartitioner: replication + shuffle first, then per-tile
// joins; on skewed data one tile dominates, serialising the work.
func SpatialSparkSelfJoin(ctx *engine.Context, tuples []Tuple, cfg SelfJoinConfig) (int64, error) {
	cfg = cfg.withDefaults()
	switch cfg.Partitioner {
	case NoPartitioner:
		return spatialSparkUnpartitioned(ctx, tuples, cfg)
	case TilePartitioner, VoronoiPartitioner:
		buckets, err := replicate(ctx, tuples, cfg)
		if err != nil {
			return 0, err
		}
		// SpatialSpark sorts its partitions by size descending — the
		// scheduler cannot split the dominant tile either way.
		sort.Slice(buckets, func(i, j int) bool { return len(buckets[i]) > len(buckets[j]) })
		results := make([][]pairKey, len(buckets))
		tasks := make([]int, len(buckets))
		for i := range tasks {
			tasks[i] = i
		}
		err = ctx.RunJob(tasks, func(b int) error {
			members := buckets[b]
			items := make([]Tuple, len(members))
			for i, m := range members {
				items[i] = m.t
			}
			var out []pairKey
			localIndexedSelfJoin(items, cfg.Eps, cfg.IndexOrder, func(i, j int) {
				out = append(out, canonical(items[i].Value, items[j].Value))
			})
			results[b] = out
			return nil
		})
		if err != nil {
			return 0, err
		}
		// SpatialSpark eliminates replication duplicates with a global
		// distinct pass over all materialised result pairs — the
		// expensive step GeoSpark's reference-point technique avoids.
		seen := make(map[pairKey]struct{})
		for _, r := range results {
			for _, k := range r {
				seen[k] = struct{}{}
			}
		}
		return int64(len(seen)), nil
	default:
		return 0, fmt.Errorf("baselines: unsupported partitioner %v", cfg.Partitioner)
	}
}

func spatialSparkUnpartitioned(ctx *engine.Context, tuples []Tuple, cfg SelfJoinConfig) (int64, error) {
	numPart := ctx.Parallelism()
	ds := engine.Parallelize(ctx, tuples, numPart)
	type pairIdx struct{ l, r int }
	var tasks []pairIdx
	// SpatialSpark's join is a generic two-dataset operator: run as
	// join(A, A), it processes all ordered partition pairs and cannot
	// exploit the self-join symmetry the way STARK's self-join
	// operator does.
	for l := 0; l < numPart; l++ {
		for r := 0; r < numPart; r++ {
			tasks = append(tasks, pairIdx{l, r})
		}
	}
	counts := make([]int64, len(tasks))
	idxs := make([]int, len(tasks))
	for i := range idxs {
		idxs[i] = i
	}
	err := ctx.RunJob(idxs, func(t int) error {
		lp, err := ds.ComputePartition(tasks[t].l)
		if err != nil {
			return err
		}
		rp, err := ds.ComputePartition(tasks[t].r)
		if err != nil {
			return err
		}
		// A fresh tree per partition pair: the strategy's defining
		// inefficiency.
		tree := index.New(cfg.IndexOrder)
		for i, kv := range rp {
			_ = tree.Insert(kv.Key.Envelope(), int32(i))
		}
		tree.Build()
		var n int64
		var buf []int32
		for _, kv := range lp {
			buf = tree.Query(kv.Key.Envelope().ExpandBy(cfg.Eps), buf[:0])
			for _, j := range buf {
				if kv.Key.WithinDistance(rp[j].Key, cfg.Eps, nil) {
					n++
				}
			}
		}
		counts[t] = n
		return nil
	})
	if err != nil {
		return 0, err
	}
	var ordered int64
	for _, c := range counts {
		ordered += c
	}
	// Convert the ordered-pair count to the unordered convention the
	// harness compares across systems: every non-self pair is found
	// twice, every self pair once.
	return (ordered + int64(len(tuples))) / 2, nil
}

// STARKSelfJoinCount is the reference result count: the number of
// unordered within-eps pairs (including self pairs), computed with a
// single global R-tree. Benches use it to validate baseline results.
func STARKSelfJoinCount(tuples []Tuple, eps float64) int64 {
	var n int64
	localIndexedSelfJoin(tuples, eps, index.DefaultOrder, func(_, _ int) { n++ })
	return n
}
