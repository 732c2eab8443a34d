package index

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"stark/internal/geom"
)

func randomEnvs(rng *rand.Rand, n int) []geom.Envelope {
	envs := make([]geom.Envelope, n)
	for i := range envs {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		envs[i] = geom.NewEnvelope(x, y, x+rng.Float64()*5, y+rng.Float64()*5)
	}
	return envs
}

// bruteQuery returns the IDs of envelopes intersecting q.
func bruteQuery(envs []geom.Envelope, q geom.Envelope) []int32 {
	var out []int32
	for i, e := range envs {
		if e.Intersects(q) {
			out = append(out, int32(i))
		}
	}
	return out
}

// refined is Query's candidates that meet q, sorted.
func refined(tr *RTree, envs []geom.Envelope, q geom.Envelope) []int32 {
	var out []int32
	for _, id := range tr.Query(q, nil) {
		if envs[id].Intersects(q) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// pack is Pack over envs, checked.
func pack(t *testing.T, order int, envs []geom.Envelope) (*RTree, []int32) {
	t.Helper()
	tr, perm := Pack(order, len(envs), func(i int) geom.Envelope { return envs[i] })
	if err := tr.check(func(pos int) geom.Envelope { return envs[perm[pos]] }); err != nil {
		t.Fatalf("n=%d order=%d: %v", len(envs), order, err)
	}
	return tr, perm
}

func TestEmptyTree(t *testing.T) {
	tr, perm := pack(t, 5, nil)
	if got := tr.Query(geom.NewEnvelope(0, 0, 10, 10), nil); len(got) != 0 || len(perm) != 0 {
		t.Errorf("empty query = %v, perm %v", got, perm)
	}
	if got := knn(tr, 0, 0, 3, func(int32) float64 { return 0 }); len(got) != 0 {
		t.Errorf("empty knn = %v", got)
	}
	if height(tr) != 1 {
		t.Errorf("height = %d", height(tr))
	}
}

func TestSingleEntry(t *testing.T) {
	tr, _ := pack(t, 5, []geom.Envelope{geom.NewEnvelope(1, 1, 2, 2)})
	if got := tr.Query(geom.NewEnvelope(0, 0, 3, 3), nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("got %v", got)
	}
	if got := tr.Query(geom.NewEnvelope(5, 5, 6, 6), nil); len(got) != 0 {
		t.Errorf("miss query = %v", got)
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	envs := randomEnvs(rng, 2000)
	tr, _ := pack(t, 8, envs)
	for i := 0; i < 50; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		q := geom.NewEnvelope(x, y, x+rng.Float64()*50, y+rng.Float64()*50)
		if got, want := refined(tr, envs, q), bruteQuery(envs, q); !slices.Equal(got, want) {
			t.Fatalf("query %d: got %d hits, want %d", i, len(got), len(want))
		}
	}
}

// TestSearchYieldsLeafRanges: the ranges come in position order,
// disjoint and never adjacent (adjacent leaves merge), and hold every
// position whose envelope meets the window; a false yield stops.
func TestSearchYieldsLeafRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	envs := randomEnvs(rng, 3000)
	tr, perm := pack(t, 6, envs)
	for i := 0; i < 50; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		q := geom.NewEnvelope(x, y, x+rng.Float64()*100, y+rng.Float64()*100)
		var got []int32
		last := -1
		tr.search(q, func(lo, hi int) bool {
			if lo <= last || hi <= lo {
				t.Fatalf("range [%d, %d) after one ending at %d", lo, hi, last)
			}
			last = hi
			for pos := lo; pos < hi; pos++ {
				if envs[perm[pos]].Intersects(q) {
					got = append(got, perm[pos])
				}
			}
			return true
		})
		slices.Sort(got)
		if want := bruteQuery(envs, q); !slices.Equal(got, want) {
			t.Fatalf("window %d: %d hits, want %d", i, len(got), len(want))
		}
	}
	calls := 0
	tr.search(geom.NewEnvelope(0, 0, 1000, 1000), func(lo, hi int) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("search went on after a false yield: %d calls", calls)
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 1000)
	envs := make([]geom.Envelope, len(pts))
	for i := range pts {
		pts[i] = geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		envs[i] = pts[i].Envelope()
	}
	tr, perm := pack(t, 6, envs)
	for trial := 0; trial < 20; trial++ {
		qx, qy := rng.Float64()*100, rng.Float64()*100
		k := 1 + rng.Intn(20)
		got := knn(tr, qx, qy, k, func(pos int32) float64 {
			p := pts[perm[pos]]
			return math.Hypot(p.X-qx, p.Y-qy)
		})
		if len(got) != k {
			t.Fatalf("knn returned %d, want %d", len(got), k)
		}
		dists := make([]float64, len(pts))
		for i, p := range pts {
			dists[i] = math.Hypot(p.X-qx, p.Y-qy)
		}
		sort.Float64s(dists)
		for i, nb := range got {
			if nb.Distance != dists[i] {
				t.Fatalf("trial %d: neighbor %d distance %v, want %v", trial, i, nb.Distance, dists[i])
			}
		}
	}
}

func TestKNNWithExactRefinement(t *testing.T) {
	// Envelope distance underestimates for non-point geometries: the
	// position whose envelope is nearer but whose distance is farther
	// must come second.
	envs := []geom.Envelope{geom.NewEnvelope(1, 0, 2, 1), geom.NewEnvelope(3, 0, 4, 1)}
	tr, perm := pack(t, 4, envs)
	dist := func(pos int32) float64 {
		if perm[pos] == 0 {
			return 100
		}
		return 3
	}
	got := knn(tr, 0, 0, 2, dist)
	if len(got) != 2 || perm[got[0].Pos] != 1 || perm[got[1].Pos] != 0 {
		t.Errorf("got %v", got)
	}
	if got[0].Distance != 3 || got[1].Distance != 100 {
		t.Errorf("distances = %v", got)
	}
}

func TestKNNEdgeCases(t *testing.T) {
	tr, _ := pack(t, 4, []geom.Envelope{geom.NewPoint(1, 1).Envelope()})
	dist := func(int32) float64 { return 1 }
	if got := knn(tr, 0, 0, 0, dist); got != nil {
		t.Errorf("k=0 → %v", got)
	}
	if got := knn(tr, 0, 0, 10, dist); len(got) != 1 {
		t.Errorf("k beyond size → %d results", len(got))
	}
}

// TestTreeInvariantsAcrossSizes runs the checker over the sizes where
// packing changes shape: empty, one item, one full leaf, one leaf more,
// and trees of three and more levels.
func TestTreeInvariantsAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, order := range []int{2, 4, 16} {
		for _, n := range []int{0, 1, order, order + 1, order*order + 1, 17, 100, 1234} {
			tr, _ := pack(t, order, randomEnvs(rng, n))
			if tr.len() != n {
				t.Errorf("n=%d: Len=%d", n, tr.len())
			}
			if n == order*order+1 && height(tr) != 3 {
				t.Errorf("n=%d order=%d: height %d, want 3", n, order, height(tr))
			}
		}
	}
}

// TestCheckCatchesDamage: each seeded fault fails the checker.
func TestCheckCatchesDamage(t *testing.T) {
	envs := randomEnvs(rand.New(rand.NewSource(9)), 200)
	for name, tc := range map[string]struct {
		damage func(tr *RTree, envs []geom.Envelope)
		want   string
	}{
		"perm repeats":    {func(tr *RTree, _ []geom.Envelope) { tr.perm[1] = tr.perm[0] }, "permutation"},
		"row moves away":  {func(tr *RTree, envs []geom.Envelope) { envs[tr.perm[0]] = geom.NewEnvelope(-2, -2, -1, -1) }, "misses position"},
		"inner not union": {func(tr *RTree, _ []geom.Envelope) { tr.nodes[0].env = tr.nodes[0].env.ExpandBy(1) }, "children cover"},
		"leaves gap":      {func(tr *RTree, _ []geom.Envelope) { tr.nodes[tr.leaf+1].lo++ }, "want it from"},
		"children skip":   {func(tr *RTree, _ []geom.Envelope) { tr.nodes[0].lo++ }, "want them from"},
		"leaves stop":     {func(tr *RTree, _ []geom.Envelope) { tr.nodes[len(tr.nodes)-1].hi-- }, "cover positions up to"},
		"node over order": {func(tr *RTree, _ []geom.Envelope) { tr.order = 1 }, "at order 1"},
	} {
		envs := slices.Clone(envs)
		tr, perm := Pack(4, len(envs), func(i int) geom.Envelope { return envs[i] })
		tc.damage(tr, envs)
		err := tr.check(func(pos int) geom.Envelope { return envs[perm[pos]] })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: check = %v, want %q", name, err, tc.want)
		}
	}
}

// neighbor is one KNN result: a position and its distance.
type neighbor struct {
	Pos      int32
	Distance float64
}

// knn collects what KNN yields.
func knn(tr *RTree, x, y float64, k int, dist func(pos int32) float64) []neighbor {
	var out []neighbor
	tr.KNN(x, y, k, dist, func(pos int32, d float64) { out = append(out, neighbor{pos, d}) })
	return out
}

// height is the number of levels, found down the first children.
func height(t *RTree) int {
	h := 1
	for n := int32(0); n < t.leaf; n = t.nodes[n].lo {
		h++
	}
	return h
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small := BuildFromEnvelopes(10, randomEnvs(rng, 50))
	big := BuildFromEnvelopes(10, randomEnvs(rng, 5000))
	if height(small) > height(big) {
		t.Errorf("heights: small=%d big=%d", height(small), height(big))
	}
	if height(big) > 5 {
		t.Errorf("5000 entries at order 10 should give height ≤ 5, got %d", height(big))
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	envs := randomEnvs(rng, 500)
	order, back, err := unmarshal(marshalEnvs(7, envs))
	if err != nil {
		t.Fatal(err)
	}
	if order != 7 || !slices.Equal(back, envs) {
		t.Fatalf("order=%d, envelopes equal: %v", order, slices.Equal(back, envs))
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, _, err := unmarshal(nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, _, err := unmarshal([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err == nil {
		t.Error("bad magic must fail")
	}
	data := marshalEnvs(4, []geom.Envelope{geom.NewPoint(1, 1).Envelope()})
	// Truncated.
	if _, _, err := unmarshal(data[:len(data)-4]); err == nil {
		t.Error("truncated input must fail")
	}
	// Trailing garbage.
	if _, _, err := unmarshal(append(data, 0xFF)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

// marshalEnvs is the file a tree over envs persists.
func marshalEnvs(order int, envs []geom.Envelope) []byte {
	tr, perm := Pack(order, len(envs), func(i int) geom.Envelope { return envs[i] })
	return tr.marshal(func(pos int) geom.Envelope { return envs[perm[pos]] })
}

func TestDefaultOrder(t *testing.T) {
	for _, order := range []int{0, 1} {
		if tr, _ := Pack(order, 0, nil); tr.Order() != DefaultOrder {
			t.Errorf("order %d must select the default", order)
		}
	}
}

func TestPropQueryCompleteness(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%300) + 1
		envs := randomEnvs(r, n)
		tr := BuildFromEnvelopes(2+r.Intn(10), envs)
		x, y := r.Float64()*1000, r.Float64()*1000
		q := geom.NewEnvelope(x, y, x+r.Float64()*200, y+r.Float64()*200)
		return slices.Equal(refined(tr, envs, q), bruteQuery(envs, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropMarshalLossless(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		envs := randomEnvs(r, int(nRaw%200))
		order, back, err := unmarshal(marshalEnvs(4, envs))
		return err == nil && order == 4 && slices.Equal(back, envs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
