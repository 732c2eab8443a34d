package piglet

// This file defines the abstract syntax tree of piglet scripts. A
// script is a sequence of statements; assignments bind the result of
// an operator expression to a relation name.

// Statement is a single script statement.
type Statement interface{ stmt() }

// Assign binds Target to the result of Op.
type Assign struct {
	Target string
	Op     Operator
	Line   int
}

// Dump materialises a relation into the execution output.
type Dump struct {
	Name string
	Line int
}

// Store writes a relation to the file system as CSV.
type Store struct {
	Name string
	Path string
	Line int
}

// Describe prints a one-line schema/summary of a relation into the
// execution output.
type Describe struct {
	Name string
	Line int
}

// Explain renders the compiled query plan of a relation — the
// cost-based planner's decisions with estimated and actual
// cardinalities — into the execution output.
type Explain struct {
	Name string
	Line int
}

func (Assign) stmt()   {}
func (Dump) stmt()     {}
func (Store) stmt()    {}
func (Describe) stmt() {}
func (Explain) stmt()  {}

// Operator is the right-hand side of an assignment.
type Operator interface{ op() }

// Load reads an events CSV from a file under the environment's root.
type Load struct {
	Path string
}

// Filter keeps the rows satisfying a spatio-temporal predicate.
type Filter struct {
	Input string
	Pred  Predicate
}

// AttrFilter keeps the rows whose named field satisfies a typed
// comparison: FILTER rel BY field <op> literal, with op one of
// == < <= > >= and the literal a number, a 'string' or true/false.
type AttrFilter struct {
	Input string
	Field string
	Op    string // as written: == < <= > >=
	Value any    // float64, string or bool
}

// PartitionOp spatially repartitions a relation.
// Kind is "grid" or "bsp"; Param is partitions-per-dimension (grid)
// or the cost threshold (bsp).
type PartitionOp struct {
	Input string
	Kind  string
	Param int
}

// IndexOp switches a relation to live indexing with the given R-tree
// order.
type IndexOp struct {
	Input string
	Order int
}

// KNNOp finds the K nearest rows to the query geometry.
type KNNOp struct {
	Input string
	WKT   string
	K     int
}

// ClusterOp runs DBSCAN over a relation.
type ClusterOp struct {
	Input  string
	Eps    float64
	MinPts int
}

// JoinOp spatially joins two relations.
type JoinOp struct {
	Left, Right string
	Pred        Predicate
}

// Limit keeps the first N rows.
type Limit struct {
	Input string
	N     int
}

// GroupCount groups a relation by a field ("category" or "cluster")
// and counts group sizes.
type GroupCount struct {
	Input string
	Field string
}

// SampleOp keeps each row with the given probability,
// deterministically derived from the seed.
type SampleOp struct {
	Input    string
	Fraction float64
	Seed     int64
}

// DistinctOp removes duplicate rows (by event ID).
type DistinctOp struct {
	Input string
}

// UnionOp concatenates two relations.
type UnionOp struct {
	Left, Right string
}

// BufferOp replaces every row's key by a polygon approximating the
// disc of the given radius around the key's centroid, preserving the
// temporal component.
type BufferOp struct {
	Input  string
	Radius float64
}

func (Load) op()        {}
func (AttrFilter) op()  {}
func (SampleOp) op()    {}
func (DistinctOp) op()  {}
func (UnionOp) op()     {}
func (BufferOp) op()    {}
func (Filter) op()      {}
func (PartitionOp) op() {}
func (IndexOp) op()     {}
func (KNNOp) op()       {}
func (ClusterOp) op()   {}
func (JoinOp) op()      {}
func (Limit) op()       {}
func (GroupCount) op()  {}

// Predicate is a spatio-temporal predicate literal:
// KIND('wkt' [, begin, end]) with KIND ∈ {INTERSECTS, CONTAINS,
// CONTAINEDBY, COVEREDBY}, or WITHINDISTANCE('wkt', dist).
// For joins, the predicate has no literal geometry (ON INTERSECTS /
// ON WITHINDISTANCE dist).
type Predicate struct {
	Kind     string // lower-cased
	WKT      string // empty for join predicates
	HasTime  bool
	Begin    int64
	End      int64
	Distance float64
}
