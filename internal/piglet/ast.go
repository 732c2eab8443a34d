package piglet

// This file defines the abstract syntax tree of piglet scripts. A
// script is a sequence of statements; assignments bind the result of
// an operator expression to a relation name.

// statement is a single script statement.
type statement interface{ stmt() }

// assign binds Target to the result of Op.
type assign struct {
	Target string
	Op     operator
	Line   int
}

// dump materialises a relation into the execution output.
type dump struct {
	Name string
	Line int
}

// store writes a relation to the file system as CSV.
type store struct {
	Name string
	Path string
	Line int
}

// describe prints a one-line schema/summary of a relation into the
// execution output.
type describe struct {
	Name string
	Line int
}

// explain renders the compiled query plan of a relation — the
// cost-based planner's decisions with estimated and actual
// cardinalities — into the execution output.
type explain struct {
	Name string
	Line int
}

func (assign) stmt()   {}
func (dump) stmt()     {}
func (store) stmt()    {}
func (describe) stmt() {}
func (explain) stmt()  {}

// operator is the right-hand side of an assignment.
type operator interface{ op() }

// load reads an events CSV from a file under the environment's root.
type load struct {
	Path string
}

// filter keeps the rows satisfying a spatio-temporal predicate.
type filter struct {
	Input string
	Pred  predicate
}

// attrFilter keeps the rows whose named field satisfies a typed
// comparison: FILTER rel BY field <op> literal, with op one of
// == < <= > >= and the literal a number, a 'string' or true/false.
type attrFilter struct {
	Input string
	Field string
	Op    string // as written: == < <= > >=
	Value any    // float64, string or bool
}

// partitionOp spatially repartitions a relation.
// Kind is "grid" or "bsp"; Param is partitions-per-dimension (grid)
// or the cost threshold (bsp).
type partitionOp struct {
	Input string
	Kind  string
	Param int
}

// indexOp switches a relation to live indexing with the given R-tree
// order.
type indexOp struct {
	Input string
	Order int
}

// knnOp finds the K nearest rows to the query geometry.
type knnOp struct {
	Input string
	WKT   string
	K     int
}

// clusterOp runs DBSCAN over a relation.
type clusterOp struct {
	Input  string
	Eps    float64
	MinPts int
}

// joinOp spatially joins two relations.
type joinOp struct {
	Left, Right string
	Pred        predicate
}

// limit keeps the first N rows.
type limit struct {
	Input string
	N     int
}

// groupCount groups a relation by a field ("category" or "cluster")
// and counts group sizes.
type groupCount struct {
	Input string
	Field string
}

// sampleOp keeps each row with the given probability,
// deterministically derived from the seed.
type sampleOp struct {
	Input    string
	Fraction float64
	Seed     int64
}

// distinctOp removes duplicate rows (by event ID).
type distinctOp struct {
	Input string
}

// unionOp concatenates two relations.
type unionOp struct {
	Left, Right string
}

// bufferOp replaces every row's key by a polygon approximating the
// disc of the given radius around the key's centroid, preserving the
// temporal component.
type bufferOp struct {
	Input  string
	Radius float64
}

func (load) op()        {}
func (attrFilter) op()  {}
func (sampleOp) op()    {}
func (distinctOp) op()  {}
func (unionOp) op()     {}
func (bufferOp) op()    {}
func (filter) op()      {}
func (partitionOp) op() {}
func (indexOp) op()     {}
func (knnOp) op()       {}
func (clusterOp) op()   {}
func (joinOp) op()      {}
func (limit) op()       {}
func (groupCount) op()  {}

// predicate is a spatio-temporal predicate literal:
// KIND('wkt' [, begin, end]) with KIND ∈ {INTERSECTS, CONTAINS,
// CONTAINEDBY, COVEREDBY}, or WITHINDISTANCE('wkt', dist).
// For joins, the predicate has no literal geometry (ON INTERSECTS /
// ON WITHINDISTANCE dist).
type predicate struct {
	Kind     string // lower-cased
	WKT      string // empty for join predicates
	HasTime  bool
	Begin    int64
	End      int64
	Distance float64
}
