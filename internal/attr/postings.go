package attr

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"

	"stark/internal/geom"
)

// Index is a secondary index over one field of one partition: the
// distinct values in ascending Compare order, each with the row ids
// carrying it, ascending. A row id is the row's position in the
// partition's row order. The index is built once and never changes,
// so readers share it without locking.
type Index struct {
	vals []Value // distinct, ascending
	// at cuts rows by value: vals[k]'s rows are rows[at[k]:at[k+1]].
	at   []int32
	rows []int32
}

// BuildIndex loads column (column[i] holds row i's value) into
// postings of row ids, ascending within each value. column is read in
// place, not copied, and the index keeps neither it nor field and
// kind.
func BuildIndex(field string, kind Kind, column []Value) *Index {
	var rows []int32
	if keys := orderKeys(column); keys != nil {
		rows = geom.OrderByKey(keys)
	} else {
		rows = make([]int32, len(column))
		for i := range rows {
			rows[i] = int32(i)
		}
		slices.SortFunc(rows, func(a, b int32) int { return cmp.Or(column[a].Compare(column[b]), cmp.Compare(a, b)) })
	}
	ix := &Index{rows: rows}
	for k, r := range rows {
		if k == 0 || column[r].Compare(column[rows[k-1]]) != 0 {
			ix.at = append(ix.at, int32(k))
		}
	}
	ix.vals = make([]Value, len(ix.at))
	for i, k := range ix.at {
		ix.vals[i] = column[rows[k]]
	}
	ix.at = append(ix.at, int32(len(rows)))
	return ix
}

// orderKeys maps a column of one kind to unsigned keys that order as
// Compare orders the values: a string is the rank of its text among
// the column's distinct texts. It returns nil for an empty column and
// for a column of mixed kinds.
func orderKeys(column []Value) []uint64 {
	if len(column) == 0 {
		return nil
	}
	kind := column[0].Kind
	keys := make([]uint64, len(column))
	var ids map[string]uint64 // a string's first-seen id
	if kind == KindString {
		ids = make(map[string]uint64)
	}
	for i, v := range column {
		if v.Kind != kind {
			return nil
		}
		switch kind {
		case KindInt64:
			keys[i] = uint64(v.I) ^ 1<<63
		case KindFloat64:
			keys[i] = geom.FloatKey(v.F)
		case KindBool:
			if v.B {
				keys[i] = 1
			}
		case KindString:
			id, ok := ids[v.S]
			if !ok {
				id = uint64(len(ids))
				ids[v.S] = id
			}
			keys[i] = id
		default:
			return nil
		}
	}
	if ids != nil {
		texts := slices.Sorted(maps.Keys(ids))
		rank := make([]uint64, len(texts))
		for r, s := range texts {
			rank[ids[s]] = uint64(r)
		}
		for i, id := range keys {
			keys[i] = rank[id]
		}
	}
	return keys
}

// seek returns the index of the first value >= v, or of the first
// value > v when strict.
func (ix *Index) seek(v Value, strict bool) int {
	return sort.Search(len(ix.vals), func(k int) bool {
		c := ix.vals[k].Compare(v)
		return c > 0 || (c == 0 && !strict)
	})
}

// spans resolves p to half-open value ranges, one per OpIn set member,
// at most one otherwise.
func (ix *Index) spans(p Pred) [][2]int {
	end := len(ix.vals)
	switch p.Op {
	case OpEq:
		return [][2]int{{ix.seek(p.Lo, false), ix.seek(p.Lo, true)}}
	case OpLt:
		return [][2]int{{0, ix.seek(p.Lo, false)}}
	case OpLe:
		return [][2]int{{0, ix.seek(p.Lo, true)}}
	case OpGt:
		return [][2]int{{ix.seek(p.Lo, true), end}}
	case OpGe:
		return [][2]int{{ix.seek(p.Lo, false), end}}
	case OpBetween:
		return [][2]int{{ix.seek(p.Lo, false), ix.seek(p.Hi, true)}}
	case OpIn:
		spans := make([][2]int, 0, len(p.Set))
		for _, v := range p.Set {
			spans = append(spans, [2]int{ix.seek(v, false), ix.seek(v, true)})
		}
		return spans
	}
	return nil
}

// Postings streams the row ids whose value matches p, in (value, row)
// order, and returns how many there were. A nil yield just counts.
func (ix *Index) Postings(p Pred, yield func(int32)) int {
	total := 0
	for _, sp := range ix.spans(p) {
		if sp[0] >= sp[1] {
			continue
		}
		rows := ix.rows[ix.at[sp[0]]:ix.at[sp[1]]]
		total += len(rows)
		if yield != nil {
			for _, r := range rows {
				yield(r)
			}
		}
	}
	return total
}

// All walks the distinct values in ascending order, each with its row
// ids in ascending order. The lists are the index's own.
func (ix *Index) All() iter.Seq2[Value, []int32] {
	return func(yield func(Value, []int32) bool) {
		for k, v := range ix.vals {
			if !yield(v, ix.rows[ix.at[k]:ix.at[k+1]]) {
				return
			}
		}
	}
}

// Check verifies the index against its invariants: the values strictly
// ascending, every value with at least one row, the rows of a value
// ascending, and the cuts tiling the rows.
func (ix *Index) Check() error {
	if len(ix.at) != len(ix.vals)+1 || ix.at[0] != 0 || int(ix.at[len(ix.vals)]) != len(ix.rows) {
		return fmt.Errorf("%d cuts over %d values and %d rows", len(ix.at), len(ix.vals), len(ix.rows))
	}
	for k, v := range ix.vals {
		if k > 0 && ix.vals[k-1].Compare(v) >= 0 {
			return fmt.Errorf("value %d: %s does not ascend from %s", k, v, ix.vals[k-1])
		}
		lo, hi := ix.at[k], ix.at[k+1]
		if lo >= hi {
			return fmt.Errorf("value %d: %s has no rows", k, v)
		}
		for i := lo + 1; i < hi; i++ {
			if ix.rows[i-1] >= ix.rows[i] {
				return fmt.Errorf("value %d: %s lists row %d after row %d", k, v, ix.rows[i], ix.rows[i-1])
			}
		}
	}
	return nil
}
