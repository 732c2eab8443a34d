package stark

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"stark/internal/attr"
	"stark/internal/core"
)

// orderTuples returns n uniform points over 100 × 100, the value of
// each its id.
func orderTuples(n int) []Tuple[int] {
	rng := rand.New(rand.NewSource(61))
	tuples := make([]Tuple[int], n)
	for i := range tuples {
		tuples[i] = NewTuple(livePoint(rng.Float64()*100, rng.Float64()*100), i)
	}
	return tuples
}

// orderWindows returns seeded square windows over 100 × 100.
func orderWindows() []STObject {
	rng := rand.New(rand.NewSource(62))
	ws := make([]STObject, 12)
	for i := range ws {
		x, y, d := rng.Float64()*90, rng.Float64()*90, 2+rng.Float64()*25
		ws[i] = NewSTObject(NewEnvelope(x, y, x+d, y+d).ToPolygon())
	}
	return ws
}

// ids returns the values of ts in their order.
func ids(ts []Tuple[int]) []int {
	out := make([]int, len(ts))
	for i, kv := range ts {
		out[i] = kv.Value
	}
	return out
}

// TestColumnarRowsInOneOrder: column row i is the dataset's row i, however
// the rows were laid out, so the kernel scan of a window yields exactly
// the rows the row scan of the same dataset yields, in the same order:
// after Index then Columnar (leaf order), Columnar then Index (the
// columns rebuilt in leaf order), Columnar alone (Hilbert order),
// LoadIndex then Columnar, a LoadIndex of an index saved from
// Columnar().Index(Persistent) on the same chain, and a mutable
// snapshot's Columnar.
func TestColumnarRowsInOneOrder(t *testing.T) {
	tuples := orderTuples(6000)
	ctx := NewContext(4)
	base := func() *Dataset[int] { return Parallelize(ctx, tuples, 8).PartitionBy(Grid(4)) }
	saved, savedColumnar := t.TempDir(), t.TempDir()
	if err := base().Index(Persistent(8)).SaveIndex(saved); err != nil {
		t.Fatal(err)
	}
	if err := base().Columnar().Index(Persistent(8)).SaveIndex(savedColumnar); err != nil {
		t.Fatal(err)
	}
	md := NewMutableDataset[int](ctx, "order", liveGrid(t, 2), 8)
	recs := make([]LiveRecord[int], len(tuples))
	for i, kv := range tuples {
		recs[i] = LiveRecord[int]{ID: int64(i), Key: kv.Key, Value: kv.Value}
	}
	if _, err := md.Insert(recs...); err != nil {
		t.Fatal(err)
	}

	for name, d := range map[string]*Dataset[int]{
		"index-then-columnar":       base().Index(Persistent(8)).Columnar(),
		"columnar-then-index":       base().Columnar().Index(Persistent(8)),
		"columnar":                  base().Columnar(),
		"unpartitioned columnar":    Parallelize(ctx, tuples, 3).Columnar(),
		"loadindex-then-columnar":   LoadIndex(base(), saved).Columnar(),
		"columnar-index-saved-load": LoadIndex(base().Columnar(), savedColumnar),
		"snapshot-columnar":         md.Snapshot().Columnar(),
	} {
		matched := 0
		for _, q := range orderWindows() {
			st, err := d.Intersects(q).resolve()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !st.sds.HasColumnar() {
				t.Fatalf("%s: the chain has no columnar sidecar", name)
			}
			scan, err := st.sds.ColumnarFilter([]core.KernelPred{kernelPred(st.pending[0])}, nil)
			if err != nil {
				t.Fatal(err)
			}
			kernel, err := scan.Collect()
			if err != nil {
				t.Fatal(err)
			}
			row, err := st.sds.Where(q, q.Envelope(), Intersects).Dataset().Collect()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ids(kernel), ids(row)) {
				t.Errorf("%s, window %v: the kernel scan yields %d rows, the row scan %d, not in one order",
					name, q.Envelope(), len(kernel), len(row))
			}
			matched += len(row)
		}
		if want := 6000 / 10; matched < want {
			t.Errorf("%s: the windows match %d rows in all, want at least %d", name, matched, want)
		}
	}
}

// TestColumnarIntersectAfterEarlierPostings: postings built before
// Columnar describe rows Columnar then lays out anew, so the columnar
// dataset builds its own over its positions. The postings AND kernel
// intersection over it, run directly and as planned, answers like the
// naive chain.
func TestColumnarIntersectAfterEarlierPostings(t *testing.T) {
	tuples := orderTuples(6000)
	ctx := NewContext(4)
	schema := NewAttrSchema[int]().Int64("f", func(_ STObject, v int) int64 { return int64(v % 100) })
	base := func() *Dataset[int] { return Parallelize(ctx, tuples, 8).PartitionBy(Grid(4)).WithSchema(schema) }
	naive := func(q STObject, op string) []int {
		t.Helper()
		rows, err := base().Optimize(false).Intersects(q).FilterOp("f", op, 50).Collect()
		if err != nil {
			t.Fatal(err)
		}
		out := ids(rows)
		slices.Sort(out)
		return out
	}
	windows := append(orderWindows(),
		NewSTObject(NewEnvelope(10, 10, 60, 60).ToPolygon()), NewSTObject(NewEnvelope(0, 0, 100, 40).ToPolygon()))
	for name, d := range map[string]*Dataset[int]{
		"postings-then-columnar":       base().AttrIndex("f").Columnar(),
		"postings-then-index-columnar": base().AttrIndex("f").Index(Persistent(8)).Columnar(),
	} {
		for _, q := range windows {
			for _, op := range []string{"gt", "lt"} {
				st, err := d.Intersects(q).FilterOp("f", op, 50).resolve()
				if err != nil {
					t.Fatal(err)
				}
				st.sds.SetSchema(st.schema) // as compile does
				scan, err := st.sds.ColumnarFilter([]core.KernelPred{kernelPred(st.pending[0])}, []attr.Pred{*st.pending[1].attr})
				if err != nil {
					t.Fatal(err)
				}
				rows, err := scan.Collect()
				if err != nil {
					t.Fatal(err)
				}
				got := ids(rows)
				slices.Sort(got)
				if want := naive(q, op); !slices.Equal(got, want) {
					t.Errorf("%s, f %s 50, window %v: the intersection yields %d rows, naive %d", name, op, q.Envelope(), len(got), len(want))
				}
			}
		}
	}

	// Postings built on the columnar dataset too: the planner prices
	// them as built and takes the intersection on the wide windows.
	const intersect = "attr=postings AND kernel survivors"
	d := base().AttrIndex("f").Columnar().AttrIndex("f")
	for _, q := range windows[len(windows)-2:] {
		chain := d.Intersects(q).FilterOp("f", "gt", 50)
		rows, err := chain.Collect()
		if err != nil {
			t.Fatal(err)
		}
		got := ids(rows)
		slices.Sort(got)
		if want := naive(q, "gt"); !slices.Equal(got, want) {
			t.Errorf("planned, window %v: %d rows, naive %d", q.Envelope(), len(got), len(want))
		}
		if text, err := chain.Explain(); err != nil || !strings.Contains(text, intersect) {
			t.Errorf("planned, window %v: the plan does not say %q (%v):\n%s", q.Envelope(), intersect, err, text)
		}
	}
}
