// Package cluster implements STARK's density-based clustering
// operator: DBSCAN, in a sequential reference version and a
// distributed version modelled after MR-DBSCAN (He et al.), which the
// paper adapts for Spark.
//
// The distributed algorithm exploits spatial partitioning:
//
//  1. every point within ε of a neighbouring partition's region is
//     replicated into that partition (the ε halo);
//  2. a local DBSCAN runs independently and in parallel on each
//     partition (over its own points plus received replicas);
//  3. a merge step unions local clusters that share a replicated
//     point, producing the global clustering.
package cluster

import (
	"fmt"

	"stark/internal/geom"
	"stark/internal/index"
)

// Noise is the label of points not assigned to any cluster.
const Noise = -1

// Result is a clustering outcome: Labels[i] is the cluster of input
// point i (Noise for none); cluster IDs are dense in [0,
// NumClusters).
type Result struct {
	Labels      []int
	NumClusters int
}

// DBSCAN is the sequential reference implementation over planar
// points with Euclidean ε-neighbourhoods. Neighbourhood queries use a
// bulk-loaded R-tree, so the complexity is O(n log n) for reasonable
// data. minPts counts the point itself, following the original
// DBSCAN definition.
func DBSCAN(points []geom.Point, eps float64, minPts int) Result {
	res, _ := dbscanWithCore(points, eps, minPts)
	return res
}

// dbscanWithCore is DBSCAN returning additionally, per point, whether
// it is a core point (has >= minPts neighbours within eps, counting
// itself). Core flags are what the distributed merge step is allowed
// to union clusters through: a border point shared by two clusters
// does not make them one cluster.
func dbscanWithCore(points []geom.Point, eps float64, minPts int) (Result, []bool) {
	n := len(points)
	labels := make([]int, n)
	core := make([]bool, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 || eps <= 0 || minPts <= 0 {
		return Result{Labels: labels}, core
	}

	tree, _ := index.Pack(16, n, func(i int) geom.Envelope { return points[i].Envelope() })
	epsSq := eps * eps
	neighbors := func(i int, dst []int32) []int32 {
		p := points[i]
		cands := tree.Query(geom.Envelope{
			MinX: p.X - eps, MinY: p.Y - eps,
			MaxX: p.X + eps, MaxY: p.Y + eps,
		}, dst[:0])
		out := cands[:0]
		for _, c := range cands {
			if geom.SquaredEuclidean(p, points[c]) <= epsSq {
				out = append(out, c)
			}
		}
		return out
	}

	visited := make([]bool, n)
	next := 0
	var buf, seedBuf []int32
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		buf = neighbors(i, buf)
		if len(buf) < minPts {
			continue // stays noise unless captured as a border point
		}
		// Start a new cluster and expand it.
		c := next
		next++
		labels[i] = c
		core[i] = true
		seeds := append([]int32(nil), buf...)
		for len(seeds) > 0 {
			j := int(seeds[len(seeds)-1])
			seeds = seeds[:len(seeds)-1]
			if labels[j] == Noise {
				labels[j] = c // border point
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			labels[j] = c
			seedBuf = neighbors(j, seedBuf)
			if len(seedBuf) >= minPts {
				core[j] = true
				seeds = append(seeds, seedBuf...)
			}
		}
	}
	return Result{Labels: labels, NumClusters: next}, core
}

// Region abstracts the partition regions the distributed algorithm
// replicates across: index i covers region Bounds(i) and every point
// belongs to partition PartitionFor. partition.SpatialPartitioner
// satisfies this.
type Region interface {
	NumPartitions() int
	Bounds(i int) geom.Envelope
}

// assignments computes, for each point, its home partition and the
// set of foreign partitions whose ε-expanded bounds contain it.
func assignments(points []geom.Point, home []int, reg Region, eps float64) [][]int {
	n := reg.NumPartitions()
	expanded := make([]geom.Envelope, n)
	for i := 0; i < n; i++ {
		expanded[i] = reg.Bounds(i).ExpandBy(eps)
	}
	out := make([][]int, len(points))
	for i, p := range points {
		for j := 0; j < n; j++ {
			if j != home[i] && expanded[j].ContainsPoint(p.X, p.Y) {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// unionFind is a plain weighted quick-union with path halving.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// DistributedConfig configures DBSCANDistributed.
type DistributedConfig struct {
	// Eps is the DBSCAN ε radius; must be > 0.
	Eps float64
	// MinPts is the core-point density threshold (counting the point
	// itself); must be >= 1.
	MinPts int
	// Regions supplies the partition regions and assignment; the
	// partitions' Bounds must tile the data space (grid or BSP
	// partitioners qualify; extent-only partitioners like Voronoi do
	// not).
	Regions Region
	// Home[i] is the home partition of point i (normally
	// partitioner.PartitionFor of the point). Length must equal the
	// point count.
	Home []int
	// Run executes the local clustering tasks, normally in parallel
	// through an engine job (engine.Context.RunJob or RunJobRecorder
	// under the caller's context); nil runs them serially.
	Run func(tasks []int, task func(t int) error) error
}

// DBSCANDistributed runs the MR-DBSCAN-style partitioned DBSCAN and
// returns labels equivalent to the sequential algorithm (up to
// cluster renumbering and the usual DBSCAN border-point tie
// ambiguity).
func DBSCANDistributed(points []geom.Point, cfg DistributedConfig) (Result, error) {
	n := len(points)
	if cfg.Eps <= 0 {
		return Result{}, fmt.Errorf("cluster: eps must be > 0, got %v", cfg.Eps)
	}
	if cfg.MinPts < 1 {
		return Result{}, fmt.Errorf("cluster: minPts must be >= 1, got %d", cfg.MinPts)
	}
	if cfg.Regions == nil {
		return Result{}, fmt.Errorf("cluster: nil Regions")
	}
	if len(cfg.Home) != n {
		return Result{}, fmt.Errorf("cluster: Home has %d entries for %d points", len(cfg.Home), n)
	}
	run := cfg.Run
	if run == nil {
		run = func(tasks []int, task func(t int) error) error {
			for _, t := range tasks {
				if err := task(t); err != nil {
					return err
				}
			}
			return nil
		}
	}
	numParts := cfg.Regions.NumPartitions()

	// Step 1: route points. Each partition receives its own points
	// plus ε-halo replicas.
	type member struct {
		global int
		local  bool // true when this partition is the home
	}
	partPoints := make([][]member, numParts)
	for i := 0; i < n; i++ {
		h := cfg.Home[i]
		if h < 0 || h >= numParts {
			return Result{}, fmt.Errorf("cluster: point %d has home %d out of [0, %d)", i, h, numParts)
		}
		partPoints[h] = append(partPoints[h], member{global: i, local: true})
	}
	replicas := assignments(points, cfg.Home, cfg.Regions, cfg.Eps)
	for i, reps := range replicas {
		for _, p := range reps {
			partPoints[p] = append(partPoints[p], member{global: i, local: false})
		}
	}

	// Step 2: local DBSCAN per partition, in parallel. Core flags are
	// kept because only core points may glue clusters together in the
	// merge step — a replica marked core locally is truly core (its
	// local neighbourhood is a subset of the real one), and every
	// truly core point is detected in its home partition, where the ε
	// halo guarantees the full neighbourhood is present.
	type localOut struct {
		labels []int // local cluster id per member, Noise for none
		core   []bool
	}
	locals := make([]localOut, numParts)
	tasks := make([]int, numParts)
	for i := range tasks {
		tasks[i] = i
	}
	err := run(tasks, func(p int) error {
		members := partPoints[p]
		pts := make([]geom.Point, len(members))
		for i, m := range members {
			pts[i] = points[m.global]
		}
		res, core := dbscanWithCore(pts, cfg.Eps, cfg.MinPts)
		locals[p] = localOut{labels: res.Labels, core: core}
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	// Step 3: merge. Each (partition, localCluster) becomes a node in
	// a union-find. A point unions all the clusters it joined across
	// partitions if and only if it is a core point; border points are
	// members of a single cluster and must not connect clusters.
	offset := make([]int, numParts+1)
	for p := 0; p < numParts; p++ {
		maxLabel := -1
		for _, l := range locals[p].labels {
			if l > maxLabel {
				maxLabel = l
			}
		}
		offset[p+1] = offset[p] + maxLabel + 1
	}
	uf := newUnionFind(offset[numParts])

	// pointClusters[i] collects the union-find nodes of the clusters
	// point i joined; pointHome[i] is the node from i's home
	// partition (-1 when the home run left it unlabelled); isCore[i]
	// reports whether any partition proved i core.
	pointClusters := make([][]int, n)
	pointHome := make([]int, n)
	isCore := make([]bool, n)
	for i := range pointHome {
		pointHome[i] = -1
	}
	for p := 0; p < numParts; p++ {
		for mi, m := range partPoints[p] {
			if locals[p].core[mi] {
				isCore[m.global] = true
			}
			if l := locals[p].labels[mi]; l != Noise {
				node := offset[p] + l
				pointClusters[m.global] = append(pointClusters[m.global], node)
				if m.local {
					pointHome[m.global] = node
				}
			}
		}
	}
	for i, nodes := range pointClusters {
		if !isCore[i] {
			continue
		}
		for k := 1; k < len(nodes); k++ {
			uf.union(nodes[0], nodes[k])
		}
	}

	// Step 4: relabel to dense global IDs, preferring the home
	// partition's assignment for border points.
	labels := make([]int, n)
	rootID := make(map[int]int)
	for i := 0; i < n; i++ {
		if len(pointClusters[i]) == 0 {
			labels[i] = Noise
			continue
		}
		node := pointHome[i]
		if node < 0 {
			node = pointClusters[i][0]
		}
		root := uf.find(node)
		id, ok := rootID[root]
		if !ok {
			id = len(rootID)
			rootID[root] = id
		}
		labels[i] = id
	}
	return Result{Labels: labels, NumClusters: len(rootID)}, nil
}
