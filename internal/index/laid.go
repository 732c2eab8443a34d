package index

import (
	"fmt"

	"stark/internal/attr"
	"stark/internal/colstore"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
	"stark/internal/wal"
)

// Laid is one laid-out partition: its rows, in the leaf order of the
// tree packed over their key envelopes so that a leaf is a run of rows
// (a nil Tree: rows in their own order, under no tree), and, over the
// rows' positions, Posts[i] for the i-th field it was laid out with and
// Cols, the envelope and interval columns of the columnar scan (nil:
// none). Nothing changes it once it is built.
type Laid[V any] struct {
	Rows  []engine.Pair[stobject.STObject, V]
	Tree  *RTree
	Posts []*attr.Index
	Cols  *colstore.Partition
}

// Lay packs a tree of the given order (order < 2 selects DefaultOrder)
// over the rows' key envelopes, lays a copy of the rows out in its leaf
// order and indexes each of fields over the positions. It returns the
// layout too: position pos holds rows[perm[pos]]. The tree keeps the
// layout, 4 B a row, only when saveable is set: SaveFile needs it and
// nothing else reads it.
func Lay[V any](order int, rows []engine.Pair[stobject.STObject, V], fields []attr.Field[V], saveable bool) (l *Laid[V], perm []int32) {
	tree, perm := Pack(order, len(rows), func(i int) geom.Envelope { return rows[i].Key.Envelope() })
	if !saveable {
		tree.perm = nil
	}
	return layOut(tree, perm, rows, fields), perm
}

// layOut lays rows out by perm under tree and indexes fields over the
// positions.
func layOut[V any](tree *RTree, perm []int32, rows []engine.Pair[stobject.STObject, V], fields []attr.Field[V]) *Laid[V] {
	l := &Laid[V]{Rows: make([]engine.Pair[stobject.STObject, V], len(perm)), Tree: tree}
	for pos, i := range perm {
		l.Rows[pos] = rows[i]
	}
	if len(fields) == 0 {
		return l
	}
	col := make([]attr.Value, len(l.Rows))
	for _, f := range fields {
		for pos := range l.Rows {
			col[pos] = f.Get(l.Rows[pos].Key, l.Rows[pos].Value)
		}
		l.Posts = append(l.Posts, attr.BuildIndex(f.Name, f.Kind, col))
	}
	return l
}

// Search calls fn with every position, from on, of a leaf whose MBR
// meets env where the row's key envelope meets env too, in position
// order, until fn returns false. It reports whether it ran to the end.
// The caller refines each row with the exact predicate.
func (l *Laid[V]) Search(env geom.Envelope, from int, fn func(pos int) bool) bool {
	more := true
	l.Tree.search(env, func(lo, hi int) bool {
		for pos := max(lo, from); pos < hi; pos++ {
			if l.Rows[pos].Key.EnvelopeIntersects(env) && !fn(pos) {
				more = false
				return false
			}
		}
		return true
	})
	return more
}

// Check verifies the tree over the rows (see RTree.check, which checks
// the layout too where the tree keeps it) and, for each
// of fields, that Posts holds a well-formed index (attr.Index.Check)
// that files every position once, under the field's value of the row
// there.
func (l *Laid[V]) Check(fields []attr.Field[V]) error {
	if l.Tree.len() != len(l.Rows) {
		return fmt.Errorf("a tree over %d positions, %d rows", l.Tree.len(), len(l.Rows))
	}
	if err := l.Tree.check(func(pos int) geom.Envelope { return l.Rows[pos].Key.Envelope() }); err != nil {
		return fmt.Errorf("tree: %w", err)
	}
	if len(l.Posts) != len(fields) {
		return fmt.Errorf("%d postings for %d fields", len(l.Posts), len(fields))
	}
	for i, f := range fields {
		if err := l.Posts[i].Check(); err != nil {
			return fmt.Errorf("field %q: %w", f.Name, err)
		}
		filed := 0
		for val, list := range l.Posts[i].All() {
			for _, pos := range list {
				if int(pos) >= len(l.Rows) {
					return fmt.Errorf("field %q files position %d of %d", f.Name, pos, len(l.Rows))
				}
				if r := &l.Rows[pos]; f.Get(r.Key, r.Value).Compare(val) != 0 {
					return fmt.Errorf("field %q: position %d valued %s filed under %s", f.Name, pos, f.Get(r.Key, r.Value), val)
				}
			}
			filed += len(list)
		}
		if filed != len(l.Rows) {
			return fmt.Errorf("field %q files %d positions of %d", f.Name, filed, len(l.Rows))
		}
	}
	return nil
}

// SaveFile writes the tree to a file with the crash-safe write-temp +
// fsync + rename contract, replacing any previous index at that path:
// a concurrent LoadFile sees the old index or the new one, never an
// absent or partial file. The file holds the rows' envelopes in the
// order the rows had before they were laid out, so only a Laid whose
// tree keeps its layout (Lay with saveable, LoadFile) can be saved.
func (l *Laid[V]) SaveFile(path string) error {
	if l.Tree.perm == nil {
		return fmt.Errorf("index: a tree laid out without its layout cannot be saved")
	}
	return wal.WriteFileAtomic(path, l.Tree.marshal(func(pos int) geom.Envelope { return l.Rows[pos].Key.Envelope() }))
}
