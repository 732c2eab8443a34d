// Package stark is a from-scratch Go reproduction of STARK, the
// spatio-temporal data processing framework for Apache Spark
// presented in "Efficient spatio-temporal event processing with
// STARK" (Hagedorn & Räth, EDBT 2017) — and, like the original, it
// leads with a seamlessly integrated DSL.
//
// Where the Scala original uses an implicit conversion to lift any
// RDD[(STObject, V)] into the spatial operator surface, this package
// lifts a slice of (STObject, V) tuples into a fluent, lazily
// evaluated Dataset[V]. Transformations chain without error plumbing;
// the first failed step is the error the terminal action reports:
//
//	events := stark.Parallelize(ctx, pairs)
//	hits, err := events.
//		PartitionBy(stark.BSP(1024)).     // cost-based spatial partitioning
//		Index(stark.Live(5)).             // per-query partition R-trees
//		Intersects(qry).                  // spatio-temporal filter
//		Collect()                         // errors surface here
//
// The paper's three indexing modes are one configuration instead of
// three call paths: Index(stark.NoIndexing) scans,
// Index(stark.Live(order)) builds transient per-partition R-trees on
// every query, and Index(stark.Persistent(order)) builds them once for
// reuse — SaveIndex/LoadIndex round-trip them through a directory of
// checksummed files, reproducing the Figure-2 workflow. Either way a
// partition is one laid-out type, shared with join build slots and
// mutable bases: its rows in the leaf order of its tree, whose leaves
// are ranges of those rows, so a probe returns rows in leaf order (a
// live index lays out a copy per query), and the columnar scan's
// columns over the same rows. A persistent index keeps the trees in
// the dataset's own partitions.
//
// The user-facing vocabulary — STObject, Envelope, Interval, the
// named predicates, partitioner recipes (Grid, BSP, Voronoi), joins
// and clustering — is exported here, so programs against the DSL
// never import an stark/internal package.
//
// # Execution model: fused batch plans
//
// Like Spark executing a chain of narrow transformations as one
// iterator per partition, the engine compiles a chain of filters and
// maps into a single pull-based plan per partition that hands slices of
// rows from operator to operator — a sourced partition hands out its own
// memory, an operator copies a row only when it survives, and no
// intermediate collection is built between steps. Fusion breaks only at
// explicit materialisation points: Cache, shuffles (PartitionBy), and
// indexed partitions (the R-trees need the records in memory).
//
//   - Count consumes the plan without building slices;
//   - Take reads it through a row adapter and stops inside the batch in
//     flight, so Take(10) on a hundred-million-row chain touches a few
//     hundred records, over an index probe ten;
//   - StreamEncodedContext feeds a consumer sequentially, in partition
//     order: it cuts every partition into row ranges of at most 4096
//     rows (morsels), runs them as ONE ordered job on all executors,
//     runs the consumer's encoder inside the tasks and still delivers
//     one chunk of bytes per morsel in order, so no slice of rows is
//     ever built. At most 2 × parallelism chunks are computed ahead of
//     the consumer;
//   - Collect materialises, but runs the whole fused chain into a
//     single output slice per partition.
//
// Partition pruning composes with fusion: a pruned partition's plan is
// never started at all. The scan applies the same envelope inside a
// partition: a row whose key envelope misses the predicate's prune
// envelope is rejected before the exact predicate sees it.
//
// # Cost-based planning and EXPLAIN
//
// Filters do not execute where they appear in the chain. They join a
// pending set that the cost-based planner compiles at the first
// record-enumerating action:
//
//   - Statistics are collected in ONE streaming pass per dataset —
//     per-partition MBRs, record counts, temporal extents and a
//     coarse grid histogram of centroids — and cached on the dataset
//     (repartitioning or filtering yields a new dataset, so a summary
//     can never describe a stale layout).
//   - Conjunctive predicates are reordered most selective first,
//     selectivity estimated from the histogram (times a temporal
//     overlap factor for timed queries), so expensive predicates see
//     few records.
//   - Partitions are pruned from the collected per-partition MBRs and
//     temporal extents — no spatial partitioner required: data with
//     ingest-order locality prunes out of the box. Partitioner
//     extents, when present, intersect with the stats-based list.
//   - A cost model compares the fused scan against building
//     transient per-partition R-trees (live indexing) and probes
//     whichever is cheaper; a dataset that already carries trees is
//     always probed.
//
// Compiling only plans. Whichever access path wins — scan, tree probe,
// columnar kernels, postings probe — is a lazy stream over the
// dataset's own partitions plus the list of partitions to visit, and
// the action drives it: Take(1) on an indexed chain probes one
// partition and stops refining at the first match, a cancelled stream
// starts no further task, and a second action on the same Dataset runs
// the plan again. What can be known before the first row (an
// unknown field, a missing schema, postings a snapshot does not hold)
// still fails at compile, so Run() reports it.
//
// # Columnar scan engine
//
// Dataset.Columnar builds a per-partition struct-of-arrays sidecar —
// envelope bounds and time intervals as flat float64/int64 columns in
// the order of the rows — that branch-free kernels sweep in 4096-row
// batches, ANDing coarse spatio-temporal survivors into a bitset; only
// survivors reach the exact predicate, column row i being the
// partition's row i (the sidecar copies no row and keeps no
// permutation). Rows a persistent index laid out keep its leaf order;
// any other rows are laid out once by the Hilbert key of their
// envelope's centre on a curve fixed at 2^16 cells a side over the
// partition's MBR, and the chain adopts that copy.
// Like Cache, it marks a point in the chain and materialises at the
// first action, and transformations return fresh instances without
// the sidecar, so it can never describe stale data (mutable datasets
// rebuild it lazily per published generation). The planner costs the
// kernel sweep against the plain scan and any index and uses it only
// when cheapest, and EXPLAIN shows the path as a ColumnarScan leaf with
// actual kernel_batches and kernel_survivors counts. The kernels
// implement the paper's combined predicate semantics exactly (a
// timed query never matches an untimed record); opaque closures fall
// back to their pruning-envelope contract.
//
// # Attribute filters
//
// Payload fields join the planner's world through typed attribute
// predicates. NewAttrSchema names fields with typed accessors
// (Int64/Float64/String/Bool) of a row's key and value; WithSchema
// registers the schema on a chain, and FilterEq, FilterRange, FilterIn
// and FilterOp defer typed comparisons that compile alongside the
// spatial predicates: per-field statistics (min/max, distinct-count
// estimate, histogram) come from the same one-pass stats sweep, and
// the planner chooses between inline evaluation on the spatial path's
// rows, an attribute-first probe of lazily built, memoised
// per-partition postings (the most selective predicate enumerates
// candidates, everything else refines), and a postings bitset ANDed
// with the columnar kernels' survivor set. EXPLAIN renders each
// predicate as an AttrScan or AttrIndex node with estimated and actual
// selectivities. MutableDataset.SetAttrFields keeps postings
// across mutations: each live partition's packed base indexes its rows
// when it is packed, and its delta of newer rows is tested with the
// predicate, so live snapshots probe without rebuilding. Both sidecars
// use one flat postings structure, the distinct values in order, each
// an 8-byte payload (a number's bits, a string's rank among the sorted
// texts) with its row ids, built once by a sort: about 16 B a row for
// an all-distinct field, 4 B for one of few values. A float NaN sorts
// below every number on every path.
// Typed predicates render canonically (fare>f:40; IN sets sorted and
// deduplicated) and therefore fingerprint and result-cache — opaque
// closures (a custom Where) are refused with the offending operator's
// position in the chain. The server's query endpoints accept the same
// predicates as a `where` clause (attribute-only queries may omit the
// geometry), and the Piglet dialect accepts field comparisons in
// FILTER.
//
// # Join execution
//
// A join is a transformation like the filters. Resolving the chain
// (Run is enough) plans it: one of three physical strategies and the
// build side, costed from both inputs' statistics over the partitions
// their own filters leave to visit (JoinOptions.Strategy forces one;
// JoinAuto, the default, lets the model choose — read the verdict back
// via JoinOptions.Report). An action then joins: every task streams
// one probe partition through its fused pipeline, once, against the
// build slots the strategy assigns it — rows of the build side plus a
// live R-tree, loaded behind a sync.Once by the first task that needs
// them — and yields pairs as they are found. Take and a cancelled
// stream stop probing; memory is bounded by the build side, the pairs
// are never materialised. What a slot holds:
//
//   - JoinBroadcast: a side whose estimated cardinality fits the
//     broadcast row budget is one slot, materialised once into a
//     single live R-tree that every probe partition streams against,
//     no pair enumeration. Probe partitions that cannot reach the
//     broadcast envelope are skipped.
//   - JoinCoPartition: when the sides are partitioned differently
//     (or one is unpartitioned), the smaller side is replicated onto
//     the larger side's SpatialPartitioner by extent overlap
//     (expanded by the probe distance), so every probe partition
//     probes exactly its aligned bucket.
//   - JoinPairs: the paper's partitioned join — one slot per build
//     partition, probed by the probe partitions whose extent reaches
//     it, disjoint extents pruned; each build partition is
//     materialised and indexed exactly once, however many probe
//     partitions and actions share it. A self join runs a task per
//     unordered pair of partitions and refines each unordered pair of
//     records once, testing the predicate both ways round.
//
// Under JoinAuto the smaller input is the build side (rows stay
// left-keyed whichever side that is); a forced strategy
// skips planning and builds the right input as given — force
// JoinBroadcast with the side to materialise on the right. EXPLAIN
// renders the decision as Join[broadcast|copartition|pairs] with
// estimated and actual pair/task counts, through the DSL, Piglet
// EXPLAIN and the server's explain endpoints alike.
//
// ExplainNode returns the plan tree (Render prints it indented): each
// operator with estimated cost and cardinality, the decisions taken
// (chosen index mode, pruned-partition count, predicate order) and,
// because ExplainNode executes the chain, the actual cardinality and
// engine metrics:
//
//	Filter[containedby env=[15 15 35 35] ...] est_rows=2.6 cost=433.1 act_rows=8
//	  · index=none scan chosen (scan_cost=433.1 index_cost=840.2)
//	  · pruned 3/4 partitions (stats MBR/time), input_rows=75
//	  · pred_order=[1(sel=0.0312) 0(sel=0.2776)]
//	  · actual: rows=8 elements_scanned=83 index_probes=0 candidates_refined=0
//	  Scan[parallelize] est_rows=300 act_rows=300
//
// Dataset.Stats exposes the collected summary; the web front end
// serves the plan as JSON via POST /api/v1/explain, and the Piglet
// dialect gains an EXPLAIN statement whose output is pinned by
// golden-file tests.
//
// # Plan fingerprints and the query service
//
// Every chain built from named predicates has a plan fingerprint
// (Dataset.Fingerprint): 16 hex digits hashing the canonical plan
// lineage, the pending predicates, the optimizer and index settings,
// and the engine generation of the resolved base dataset. Equal
// fingerprint means "the same logical query over the same physical
// data", so a fingerprint can key a result cache; because a re-built
// base carries a fresh generation, re-registering a dataset
// invalidates every old entry by construction rather than by
// explicit purge. Chains through opaque closures (Where, ReKey) refuse
// to fingerprint — a key that ignored a closure could alias two
// different queries.
//
// internal/server builds the serving stack on top: a catalog of named
// datasets (register/list/drop over HTTP, each with its own
// partitioner recipe, index mode and statistics), an LRU result cache
// keyed by fingerprint with a byte budget, an admission-controlled
// worker pool (bounded slots, bounded deadline-limited queue, HTTP
// 429/503 on overload), and NDJSON streaming via
// Dataset.StreamEncodedContext, which cancels the scan when the
// client disconnects. The reply contract of /api/v1/query: one feature
// per line with sorted keys, byte for byte what json.Marshal makes of the
// map form (an append encoder writes it, a fuzzed test holds it to that
// oracle; coordinates come from geom.AppendFixed, a Schubfach kernel
// fuzzed against strconv); rows in partition order, each morsel encoded
// inside its own task and written with one Write; then one summary line,
// absent when the stream was aborted. A cache hit replays the very chunks
// the miss streamed, with zero engine work. A "join" clause on
// /api/v1/query joins the (optionally filtered) dataset against another
// catalog dataset with any strategy hint and streams the pairs as they
// are found; join results bypass the cache, since each request builds a
// fresh join operator whose fingerprint could never repeat. A "knn"
// clause returns the k rows nearest to the request's WKT (after its
// where clauses), a "cluster" clause labels the filtered rows by DBSCAN;
// both take an admission slot, bypass the cache, have no EXPLAIN plan,
// and reply through the same encoder with a "distance" or "cluster"
// property on every line. cmd/starkd is
// the executable; bench/e2e measures latency, throughput and hit rate
// through real HTTP with every reply checked (BENCHMARK.json names the
// metrics: go run ./bench/e2e -workload read_selective -seed 1).
//
// # Mutable live datasets
//
// MutableDataset (backed by internal/live) lifts the
// immutable-after-registration restriction: mutation batches (Apply,
// Insert, Delete) land while queries run. Each partition is a packed
// base — the same laid-out type as an index partition, with attribute
// postings, beside the rows' ids — plus an append-only delta; every
// row carries the generation that deleted it and every delta row the
// one that added it, so a reader pinned to generation G sees exactly
// the records live at G, without taking a lock.
//
// The mutation lifecycle:
//
//   - a batch is validated first (duplicate IDs, inserting a live ID,
//     empty geometry reject the whole batch with nothing applied),
//     then applied and published atomically as the next generation;
//   - Snapshot() pins the latest generation as an ordinary Dataset:
//     repeatable reads regardless of later batches, planner-driven
//     filters over incrementally maintained statistics (exact counts,
//     grow-only MBR/temporal extents — no rescan per batch), direct
//     probes of the bases' trees and deltas for index-eligible predicates,
//     and a LiveScan[name gen=N] leaf in EXPLAIN;
//   - snapshots of one generation share one view, so plan
//     fingerprints are stable and result caches keep hitting; a new
//     generation yields a fresh lineage, making every older
//     fingerprint unmatchable. Cache and statistics invalidation are
//     structural, never timed.
//
// Deletes are tombstones. A partition is repacked into a new base when
// its delta outgrows max(1024, base/4) rows or its tombstones outnumber
// its live rows, invisibly to pinned snapshots; Restore and seeding
// pack the same way.
// The server exposes the whole lifecycle over HTTP: register with
// "mutable": true, POST NDJSON mutation batches to /api/v1/ingest
// (one request = one atomic batch = one generation; a bad line,
// which includes one holding anything after its one JSON object,
// rejects the whole batch), DELETE single records by ID, and read
// generation-fresh statistics from the catalog endpoints. The
// ingest_then_query workload of bench/e2e measures a 100-upsert batch
// and the first read of the generation it publishes (op.ingest_ms,
// op.query_ms: go run ./bench/e2e -workload ingest_then_query -seed 1
// -trace 1).
//
// # Durability
//
// starkd -data-dir makes the service crash-safe (internal/wal plus the
// server's checkpoint machinery). Registrations, drops and ingest
// batches are appended to a CRC32C-framed write-ahead log and fsync'd
// before they are acknowledged — an ingest ack is a durability receipt
// for exactly that generation. Checkpoints (periodic and at graceful
// shutdown) rotate the log and snapshot every dataset — a mutable
// dataset becomes a checksummed rows segment (the inline event records
// of a registration request) whose row count the manifest cross-checks
// on restore, captured through a writer barrier so no logged batch is
// missed, a generated dataset just its spec — behind atomic
// temp+fsync+rename manifests. The newest two checkpoints and the WAL
// suffix of the older are retained, so one rotted manifest degrades to
// recovering from the previous checkpoint. Recovery loads the newest
// valid manifest (corrupt ones skipped), re-registers each mutable
// dataset from its rows at the manifest's live generation (packing
// them into its partitions instead of replaying inserts), then replays
// the WAL suffix through the same validation and generation paths as
// live ingest: idempotent by generation number, stopping cleanly at a
// torn tail of the newest segment, erroring loudly on damage anywhere
// older (acknowledged records would be lost), never resurrecting an
// unacknowledged batch, and erroring on generation gaps. A resident
// row is (key, (id, category)): the log and the rows segments hold the
// key's time and its WKT rendered from the key, which parses back to
// the same coordinates bit for bit (internal/geom's round-trip table
// and fuzz target). The torn-write and bit-flip batteries in
// internal/wal and internal/server cut the log at every byte boundary
// and flip random bits; recovery must always come back with exactly
// the acknowledged prefix. The same bench/e2e workload runs on a
// durable dataset: it prices the append and the fsync per batch
// (wal.append_ms, wal.fsync_ms), times each checkpoint and ends with a
// recovery that has to come back at the acknowledged generation
// (server.recover_s).
//
// # Observability
//
// Engine counters are attributed per query: every Dataset chain
// carries a job recorder that charges the work it causes — elements
// scanned, index probes, tasks launched and skipped, shuffle volume —
// to that query exactly, and to the context totals as well. The
// attribution stays exact under concurrency (a -race regression test
// pins solo runs against concurrent ones); work shared across
// queries by design (statistics collection, columnar layout builds,
// index construction, live ingestion) is charged to the context
// totals only. The eleven counters are declared once, as
// internal/engine's Counter table; every charge goes through a
// recorder, and traces, EXPLAIN, /metrics and /api/service iterate
// the table under the same snake_case names.
//
// Dataset.Trace() returns the chain's execution trace as a
// plan.TraceNode tree: one child per executed phase (plan, collect,
// stream, count, knn, ...) with wall time, rows and the per-query
// counter deltas, and the executed plan tree grafted under the first
// phase so the operators the planner chose appear with their actual
// cardinalities. Phase recording is always on and costs two counter
// snapshots per action, so EXPLAIN output and untraced behaviour are
// unchanged.
//
// The query service exposes the same at the HTTP layer: a query with
// "trace": true returns the trace in its NDJSON summary line
// (bypassing the result cache in both directions, so the trace
// always describes a real execution); GET /metrics serves a
// Prometheus text exposition (internal/obs, stdlib-only) with
// per-route latency histograms, cache, admission and engine
// counters; GET /api/service reports the same as JSON. Every
// response carries an X-Request-Id, requests log through log/slog,
// and starkd's -slow-query-ms flag warns on slow requests with the
// offending query's trace one-liner attached (-pprof mounts
// net/http/pprof).
//
// The implementation below the DSL lives in internal/ and is not part
// of the API:
//
//   - internal/engine    — a Spark-core stand-in: partitioned, lazily
//     evaluated datasets with a parallel task scheduler and shuffle;
//   - internal/geom      — the JTS-subset geometry kernel (WKT,
//     predicates, distances);
//   - internal/stobject  — the STObject data type (a geometry plus an
//     optional closed interval of instants) with the paper's combined
//     spatio-temporal predicate semantics;
//   - internal/partition — grid, cost-based BSP, tile and Voronoi
//     spatial partitioners with extent bookkeeping;
//   - internal/index     — the laid-out partition: rows in the leaf
//     order of an STR-packed R-tree (with kNN and persistence), with
//     their columns and postings;
//   - internal/wal       — the append-only CRC32C-framed write-ahead
//     log and the checksummed/atomic file-write primitives under the
//     durability layer;
//   - internal/colstore  — the columnar scan sidecar: SoA
//     envelope/interval columns in row order, the Hilbert row layout,
//     batched branch-free filter kernels over survivor bitsets;
//   - internal/live      — the mutable-dataset substrate: packed bases
//     plus append-only deltas, generation-tagged visibility, snapshots
//     and batch application;
//   - internal/core      — the operator layer the DSL drives: every
//     filter access path (fused scan, tree probe, columnar kernels,
//     postings probe and intersection) as a lazy stream over the
//     dataset's partitions, the join as one lazy operator over two
//     such streams, plus kNN, the indexing modes and DBSCAN (one self
//     join under that operator plus a union–find);
//   - internal/stats     — one-pass dataset statistics for the
//     planner (per-partition MBRs, counts, temporal extents, grid
//     histogram);
//   - internal/plan      — the cost-based planner: predicate algebra,
//     cost model, rewrite decisions and the EXPLAIN tree;
//   - internal/piglet    — the Pig Latin derivative of the demo;
//   - internal/obs       — the dependency-free metrics kernel:
//     counters, gauges, quantile-estimating histograms and the
//     Prometheus text exposition behind GET /metrics;
//   - internal/server    — the multi-dataset query service (catalog,
//     result cache, admission control, NDJSON streaming, telemetry)
//     and the demo web front end;
//   - internal/bench     — the paper's Figure 4 self join, STARK (the
//     join operator's symmetric pairs self join) against the GeoSpark-
//     and SpatialSpark-style baselines (cmd/stark-bench prints it); the
//     service itself is measured by bench/e2e.
//
// See README.md for the DSL tour and the Scala-vs-Go comparison, and
// the examples/ directory for complete programs.
package stark
