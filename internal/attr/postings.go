package attr

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
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
	rows := make([]int32, len(column))
	for i := range rows {
		rows[i] = int32(i)
	}
	if keys := orderKeys(column); keys != nil {
		rows = radixSort(rows, keys)
	} else {
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

// orderKeys maps a column of numbers or booleans to unsigned keys that
// order as Compare orders the values. It returns nil for strings and
// for a column of mixed kinds.
func orderKeys(column []Value) []uint64 {
	if len(column) == 0 || column[0].Kind == KindString {
		return nil
	}
	keys := make([]uint64, len(column))
	for i, v := range column {
		if v.Kind != column[0].Kind {
			return nil
		}
		switch v.Kind {
		case KindInt64:
			keys[i] = uint64(v.I) ^ 1<<63
		case KindFloat64:
			keys[i] = floatKey(v.F)
		case KindBool:
			if v.B {
				keys[i] = 1
			}
		default:
			return nil
		}
	}
	return keys
}

// floatKey orders float64s as Compare does: every NaN lowest, -0 equal
// to +0.
func floatKey(f float64) uint64 {
	switch b := math.Float64bits(f); {
	case f != f:
		return 0
	case f == 0:
		return 1 << 63
	case b>>63 == 1: // negative: the larger the magnitude, the smaller
		return ^b
	default:
		return b | 1<<63
	}
}

// radixSort orders rows by keys[row] a byte at a time, from the least
// significant; each pass is stable, so rows with equal keys keep their
// order.
func radixSort(rows []int32, keys []uint64) []int32 {
	tmp := make([]int32, len(rows))
	for shift := 0; shift < 64 && len(rows) > 0; shift += 8 {
		var at [257]int
		for _, r := range rows {
			at[keys[r]>>shift&0xff+1]++
		}
		if at[keys[rows[0]]>>shift&0xff+1] == len(rows) {
			continue // every key has this byte
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, r := range rows {
			d := keys[r] >> shift & 0xff
			tmp[at[d]] = r
			at[d]++
		}
		rows, tmp = tmp, rows
	}
	return rows
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
