package attr

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"sort"
)

// chunkCap bounds a chunk of postings. An insert shifts at most one
// chunk, so the constant trades the bytes moved per new value against
// the length of the directory searched first.
const chunkCap = 64

// Postings is a secondary index over one field of one partition: the
// distinct values in ascending Compare order, each with the entries
// carrying it in arrival order, cut into chunks of at most chunkCap
// slots. A lookup binary-searches the chunks by their last value and
// then the chunk it lands in; a new value shifts only that chunk, and
// a chunk that overflows splits in half. Chunks are never empty.
//
// The static attribute sidecar files row ids (Index); a live dataset
// files record versions. Postings does no locking: the caller runs one
// writer at a time and keeps readers out while it writes.
type Postings[E any] struct {
	chunks [][]slot[E]
}

// Index is the static sidecar's postings: an entry is a row id, the
// row's position in the partition's row order.
type Index = Postings[int32]

// slot is one distinct value with the entries carrying it.
type slot[E any] struct {
	val  Value
	list []E
}

// pos addresses a slot: chunk c, slot i within it. The position one
// past the last slot is {len(chunks), 0}.
type pos struct{ c, i int }

// BuildIndex loads column (column[i] holds row i's value) into
// postings of row ids, ascending within each value. column is read in
// place, not copied, and the postings keep neither it nor field and
// kind.
func BuildIndex(field string, kind Kind, column []Value) *Index {
	return LoadPostings(column, func(i int32) int32 { return i })
}

// LoadPostings builds postings from sorted runs: entry(i) carries
// vals[i], and the entries are filed in (value, i) order, so a value's
// list holds its entries by ascending i, as inserting them in that
// order would. vals is read in place and not kept. Lists, slots and
// chunks are capped windows of one array each, so a first growth
// reallocates.
func LoadPostings[E any](vals []Value, entry func(i int32) E) *Postings[E] {
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Or(vals[a].Compare(vals[b]), cmp.Compare(a, b)) })
	fresh := func(k int) bool { return k == 0 || vals[order[k]].Compare(vals[order[k-1]]) != 0 }
	lists, distinct := make([]E, len(vals)), 0
	for k, i := range order {
		if lists[k] = entry(i); fresh(k) {
			distinct++
		}
	}
	slots := make([]slot[E], 0, distinct)
	for k, i := range order {
		if fresh(k) {
			slots = append(slots, slot[E]{val: vals[i]})
		}
		s := &slots[len(slots)-1]
		s.list = lists[k-len(s.list) : k+1 : k+1]
	}
	ps := &Postings[E]{chunks: make([][]slot[E], 0, (distinct+chunkCap-1)/chunkCap)}
	for len(slots) > 0 {
		n := min(len(slots), chunkCap)
		ps.chunks = append(ps.chunks, slots[:n:n])
		slots = slots[n:]
	}
	return ps
}

func (ps *Postings[E]) end() pos { return pos{len(ps.chunks), 0} }

// seek returns the position of the first value >= v, or of the first
// value > v when strict.
func (ps *Postings[E]) seek(v Value, strict bool) pos {
	past := func(x Value) bool {
		c := x.Compare(v)
		return c > 0 || (c == 0 && !strict)
	}
	c := sort.Search(len(ps.chunks), func(c int) bool {
		ch := ps.chunks[c]
		return past(ch[len(ch)-1].val)
	})
	if c == len(ps.chunks) {
		return ps.end()
	}
	ch := ps.chunks[c]
	return pos{c, sort.Search(len(ch), func(i int) bool { return past(ch[i].val) })}
}

// Insert files e under v, after the entries already there, creating
// v's slot when the value is new.
func (ps *Postings[E]) Insert(v Value, e E) {
	at := ps.seek(v, false)
	if at.c == len(ps.chunks) {
		// Greater than every value held: extend the last chunk.
		if at.c == 0 {
			ps.chunks = append(ps.chunks, make([]slot[E], 0, chunkCap+1))
		}
		at.c = len(ps.chunks) - 1
		at.i = len(ps.chunks[at.c])
	} else if s := &ps.chunks[at.c][at.i]; s.val.Compare(v) == 0 {
		s.list = append(s.list, e)
		return
	}
	ch := slices.Insert(ps.chunks[at.c], at.i, slot[E]{val: v, list: []E{e}})
	if len(ch) > chunkCap {
		mid := len(ch) / 2
		upper := make([]slot[E], len(ch)-mid, chunkCap+1)
		copy(upper, ch[mid:])
		clear(ch[mid:])
		ch = ch[:mid]
		ps.chunks = slices.Insert(ps.chunks, at.c+1, upper)
	}
	ps.chunks[at.c] = ch
}

// spans resolves p to half-open position ranges over the ordered
// values, one per OpIn set member, at most one otherwise.
func (ps *Postings[E]) spans(p Pred) [][2]pos {
	first, end := pos{}, ps.end()
	switch p.Op {
	case OpEq:
		return [][2]pos{{ps.seek(p.Lo, false), ps.seek(p.Lo, true)}}
	case OpLt:
		return [][2]pos{{first, ps.seek(p.Lo, false)}}
	case OpLe:
		return [][2]pos{{first, ps.seek(p.Lo, true)}}
	case OpGt:
		return [][2]pos{{ps.seek(p.Lo, true), end}}
	case OpGe:
		return [][2]pos{{ps.seek(p.Lo, false), end}}
	case OpBetween:
		return [][2]pos{{ps.seek(p.Lo, false), ps.seek(p.Hi, true)}}
	case OpIn:
		spans := make([][2]pos, 0, len(p.Set))
		for _, v := range p.Set {
			spans = append(spans, [2]pos{ps.seek(v, false), ps.seek(v, true)})
		}
		return spans
	}
	return nil
}

// walk yields the slots of [from, to) in value order.
func (ps *Postings[E]) walk(from, to pos) iter.Seq[*slot[E]] {
	return func(yield func(*slot[E]) bool) {
		for c := from.c; c < len(ps.chunks) && c <= to.c; c++ {
			ch := ps.chunks[c]
			lo, hi := 0, len(ch)
			if c == from.c {
				lo = from.i
			}
			if c == to.c {
				hi = to.i
			}
			for i := lo; i < hi; i++ {
				if !yield(&ch[i]) {
					return
				}
			}
		}
	}
}

// Postings streams the entries whose value matches p, in (value,
// arrival) order, and returns how many there were. A nil yield just
// counts.
func (ps *Postings[E]) Postings(p Pred, yield func(E)) int {
	total := 0
	for _, sp := range ps.spans(p) {
		for s := range ps.walk(sp[0], sp[1]) {
			total += len(s.list)
			if yield != nil {
				for _, e := range s.list {
					yield(e)
				}
			}
		}
	}
	return total
}

// All walks the distinct values in ascending order, each with its
// entries in arrival order. The lists are the postings' own.
func (ps *Postings[E]) All() iter.Seq2[Value, []E] {
	return func(yield func(Value, []E) bool) {
		for s := range ps.walk(pos{}, ps.end()) {
			if !yield(s.val, s.list) {
				return
			}
		}
	}
}

// Check verifies the structure against its invariants: every chunk
// non-empty and within chunkCap, the values strictly ascending across
// the whole field, and no value without entries. It is cheap enough to
// run after every update of a test.
func (ps *Postings[E]) Check() error {
	var prev *Value
	for c, ch := range ps.chunks {
		if len(ch) == 0 || len(ch) > chunkCap {
			return fmt.Errorf("chunk %d of %d holds %d slots (capacity %d)", c, len(ps.chunks), len(ch), chunkCap)
		}
		for i := range ch {
			s := &ch[i]
			if prev != nil && prev.Compare(s.val) >= 0 {
				return fmt.Errorf("chunk %d slot %d: %s does not ascend from %s", c, i, s.val, *prev)
			}
			prev = &s.val
			if len(s.list) == 0 {
				return fmt.Errorf("chunk %d slot %d: %s has no entries", c, i, s.val)
			}
		}
	}
	return nil
}
