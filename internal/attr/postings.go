package attr

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"

	"stark/internal/geom"
)

// Index is a secondary index over one field of one partition: the
// distinct values in ascending Compare order, each with the row ids
// carrying it, ascending. A row id is the row's position in the
// partition's row order. A value is held as one 8-byte payload: an
// int64 or a float64 keeps the bits of the value its first row
// carries, a bool is 0 or 1, and a string is its rank in texts. The
// values sort by kind first, so each kind is one run of them. The
// index is built once and never changes, so readers share it without
// locking.
type Index struct {
	vals []uint64 // payloads, distinct, ascending
	// runs cuts vals by kind: kind k's values are vals[runs[k]:runs[k+1]].
	runs  [KindBool + 2]int32
	texts []string // the distinct strings, ascending
	// at cuts rows by value: vals[k]'s rows are rows[at[k]:at[k+1]].
	at   []int32
	rows []int32
}

// payload returns v's 8-byte form; a string's is its rank, which only
// the index knows, so it returns 0 for one.
func payload(v Value) uint64 {
	switch v.Kind {
	case KindInt64:
		return uint64(v.I)
	case KindFloat64:
		return math.Float64bits(v.F)
	case KindBool:
		if v.B {
			return 1
		}
	}
	return 0
}

// orderKey maps the payload of a value of kind k to an unsigned key
// that orders as Compare orders the values of one kind: an int with its
// sign bit flipped, a float through geom.FloatKey (NaN lowest, −0 =
// +0), a bool or a string's rank as it is.
func orderKey(k Kind, p uint64) uint64 {
	switch k {
	case KindInt64:
		return p ^ 1<<63
	case KindFloat64:
		return geom.FloatKey(math.Float64frombits(p))
	}
	return p
}

// BuildIndex loads column (column[i] holds row i's value) into
// postings of row ids, ascending within each value. column is read in
// place, not copied, and the index keeps neither it nor field and
// kind.
func BuildIndex(field string, kind Kind, column []Value) *Index {
	ix := &Index{}
	keys := make([]uint64, len(column))
	mixed := false
	var ids map[string]uint64 // a string's first-seen id
	for i, v := range column {
		mixed = mixed || v.Kind != column[0].Kind
		if v.Kind != KindString {
			keys[i] = orderKey(v.Kind, payload(v))
			continue
		}
		if ids == nil {
			ids = make(map[string]uint64)
		}
		id, ok := ids[v.S]
		if !ok {
			id = uint64(len(ids))
			ids[v.S] = id
		}
		keys[i] = id
	}
	if ids != nil {
		ix.texts = make([]string, 0, len(ids))
		for s := range ids {
			ix.texts = append(ix.texts, s)
		}
		slices.Sort(ix.texts)
		rank := make([]uint64, len(ix.texts))
		for r, s := range ix.texts {
			rank[ids[s]] = uint64(r)
		}
		if !mixed {
			for i, id := range keys {
				keys[i] = rank[id]
			}
		}
	}
	if mixed { // the keys order values of one kind only
		ix.rows = make([]int32, len(column))
		for i := range ix.rows {
			ix.rows[i] = int32(i)
		}
		slices.SortStableFunc(ix.rows, func(a, b int32) int { return column[a].Compare(column[b]) })
	} else {
		ix.rows = geom.OrderByKey(slices.Clone(keys))
	}
	// Within a kind, two values are equal exactly when their keys are.
	rows := ix.rows
	starts := func(k int) bool {
		a, b := rows[k], rows[max(k-1, 0)]
		return k == 0 || keys[a] != keys[b] || (mixed && column[a].Kind != column[b].Kind)
	}
	distinct := 0
	for k := range rows {
		if starts(k) {
			distinct++
		}
	}
	ix.vals = make([]uint64, 0, distinct)
	ix.at = make([]int32, 0, distinct+1)
	for k, r := range rows {
		if !starts(k) {
			continue
		}
		v, p := column[r], payload(column[r])
		if v.Kind == KindString {
			p = uint64(ix.runs[KindString+1]) // the texts arrive in rank order
		}
		ix.vals = append(ix.vals, p)
		ix.at = append(ix.at, int32(k))
		ix.runs[v.Kind+1]++
	}
	ix.at = append(ix.at, int32(len(rows)))
	for k := 1; k < len(ix.runs); k++ {
		ix.runs[k] += ix.runs[k-1]
	}
	return ix
}

// run returns the bounds of kind k's values; a kind past KindBool sorts
// after every value and has none.
func (ix *Index) run(k Kind) (int, int) {
	if k > KindBool {
		return len(ix.vals), len(ix.vals)
	}
	return int(ix.runs[k]), int(ix.runs[k+1])
}

// value returns the k-th value, of kind kind.
func (ix *Index) value(kind Kind, k int) Value {
	p := ix.vals[k]
	switch kind {
	case KindInt64:
		return intValue(int64(p))
	case KindFloat64:
		return floatValue(math.Float64frombits(p))
	case KindString:
		return String(ix.texts[p])
	case KindBool:
		return boolValue(p == 1)
	}
	return Value{Kind: kind}
}

// seek returns the index of the first value >= v, or of the first
// value > v when strict.
func (ix *Index) seek(v Value, strict bool) int {
	lo, hi := ix.run(v.Kind)
	if v.Kind == KindString {
		r := sort.SearchStrings(ix.texts, v.S)
		if strict && r < len(ix.texts) && ix.texts[r] == v.S {
			r++
		}
		return lo + r
	}
	want := orderKey(v.Kind, payload(v))
	return lo + sort.Search(hi-lo, func(k int) bool {
		got := orderKey(v.Kind, ix.vals[lo+k])
		return got > want || (got == want && !strict)
	})
}

// span resolves p, an operator other than OpIn, to one half-open
// value range. Like Matches, the range holds only values of its
// operand's kind.
func (ix *Index) span(p Pred) (int, int) {
	lo, hi := ix.run(p.Lo.Kind)
	switch p.Op {
	case OpEq:
		return ix.seek(p.Lo, false), ix.seek(p.Lo, true)
	case OpLt:
		return lo, ix.seek(p.Lo, false)
	case OpLe:
		return lo, ix.seek(p.Lo, true)
	case OpGt:
		return ix.seek(p.Lo, true), hi
	case OpGe:
		return ix.seek(p.Lo, false), hi
	case OpBetween:
		if p.Lo.Kind == p.Hi.Kind {
			return ix.seek(p.Lo, false), ix.seek(p.Hi, true)
		}
	}
	return 0, 0
}

// Postings streams the row ids whose value matches p, in (value, row)
// order, and returns how many there were. A nil yield just counts. It
// allocates nothing.
func (ix *Index) Postings(p Pred, yield func(int32)) int {
	if p.Op != OpIn {
		lo, hi := ix.span(p)
		return ix.emit(lo, hi, yield)
	}
	total := 0
	for _, v := range p.Set {
		total += ix.emit(ix.seek(v, false), ix.seek(v, true), yield)
	}
	return total
}

// emit streams the row ids of values [lo, hi) to yield, unless it is
// nil, and returns how many there are.
func (ix *Index) emit(lo, hi int, yield func(int32)) int {
	if lo >= hi {
		return 0
	}
	rows := ix.rows[ix.at[lo]:ix.at[hi]]
	if yield != nil {
		for _, r := range rows {
			yield(r)
		}
	}
	return len(rows)
}

// All walks the distinct values in ascending order, each with its row
// ids in ascending order. The lists are the index's own.
func (ix *Index) All() iter.Seq2[Value, []int32] {
	return func(yield func(Value, []int32) bool) {
		for kind := KindInvalid; kind <= KindBool; kind++ {
			lo, hi := ix.run(kind)
			for k := lo; k < hi; k++ {
				if !yield(ix.value(kind, k), ix.rows[ix.at[k]:ix.at[k+1]]) {
					return
				}
			}
		}
	}
}

// Check verifies the index against its invariants: the cuts tiling
// the rows, the kind runs tiling the values, one text per string value
// with its rank in place, the values of a kind strictly ascending, each
// with at least one row, and the rows of a value ascending.
func (ix *Index) Check() error {
	n := len(ix.vals)
	if len(ix.at) != n+1 || ix.at[0] != 0 || int(ix.at[n]) != len(ix.rows) {
		return fmt.Errorf("%d cuts over %d values and %d rows", len(ix.at), n, len(ix.rows))
	}
	if lo, hi := ix.run(KindString); ix.runs[0] != 0 || int(ix.runs[len(ix.runs)-1]) != n || hi-lo != len(ix.texts) {
		return fmt.Errorf("kind runs %v over %d values and %d texts", ix.runs, n, len(ix.texts))
	}
	for kind := KindInvalid; kind <= KindBool; kind++ {
		lo, hi := ix.run(kind)
		if lo > hi {
			return fmt.Errorf("kind runs %v: %s ends before it starts", ix.runs, kind)
		}
		for k := lo; k < hi; k++ {
			switch p := ix.vals[k]; {
			case kind == KindString && p != uint64(k-lo), kind == KindBool && p > 1, kind == KindInvalid && p != 0:
				return fmt.Errorf("value %d: %s payload %d out of place", k, kind, p)
			case k > lo && ix.value(kind, k-1).Compare(ix.value(kind, k)) >= 0:
				return fmt.Errorf("value %d: %s does not ascend from %s", k, ix.value(kind, k), ix.value(kind, k-1))
			case ix.at[k] >= ix.at[k+1]:
				return fmt.Errorf("value %d: %s has no rows", k, ix.value(kind, k))
			}
			for i := ix.at[k] + 1; i < ix.at[k+1]; i++ {
				if ix.rows[i-1] >= ix.rows[i] {
					return fmt.Errorf("value %d: %s lists row %d after row %d", k, ix.value(kind, k), ix.rows[i], ix.rows[i-1])
				}
			}
		}
	}
	return nil
}
