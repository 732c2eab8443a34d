package index

import (
	"errors"
	"math"
	"math/rand"
	"sort"
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

func sortIDs(ids []int32) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func TestEmptyTree(t *testing.T) {
	tr := New(5)
	tr.Build()
	if got := tr.Query(geom.NewEnvelope(0, 0, 10, 10), nil); len(got) != 0 {
		t.Errorf("empty query = %v", got)
	}
	if got := tr.KNN(0, 0, 3, nil); len(got) != 0 {
		t.Errorf("empty knn = %v", got)
	}
	if tr.Height() != 1 {
		t.Errorf("height = %d", tr.Height())
	}
	if err := tr.validate(); err != nil {
		t.Error(err)
	}
}

func TestSingleEntry(t *testing.T) {
	tr := New(5)
	tr.Insert(geom.NewEnvelope(1, 1, 2, 2), 42)
	tr.Build()
	got := tr.Query(geom.NewEnvelope(0, 0, 3, 3), nil)
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("got %v", got)
	}
	if got := tr.Query(geom.NewEnvelope(5, 5, 6, 6), nil); len(got) != 0 {
		t.Errorf("miss query = %v", got)
	}
}

func TestBuildIdempotentAndGuards(t *testing.T) {
	tr := New(5)
	tr.Insert(geom.NewEnvelope(0, 0, 1, 1), 0)
	tr.Build()
	tr.Build() // second build is a no-op
	if !tr.Built() {
		t.Error("must be built")
	}
	if err := tr.Insert(geom.NewEnvelope(0, 0, 1, 1), 1); !errors.Is(err, ErrBuilt) {
		t.Errorf("Insert after Build = %v, want ErrBuilt", err)
	}
	if tr.Len() != 1 {
		t.Errorf("rejected Insert changed Len to %d", tr.Len())
	}
	// Round trip through the persist format after a rejected Insert:
	// the marshalled entry table must be unaffected.
	data, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 {
		t.Errorf("round trip Len = %d, want 1", back.Len())
	}
	if err := back.Insert(geom.NewEnvelope(2, 2, 3, 3), 9); !errors.Is(err, ErrBuilt) {
		t.Errorf("Insert after Unmarshal = %v, want ErrBuilt", err)
	}
	unbuilt := New(5)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Query before Build must panic")
			}
		}()
		unbuilt.Query(geom.NewEnvelope(0, 0, 1, 1), nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("KNN before Build must panic")
			}
		}()
		unbuilt.KNN(0, 0, 1, nil)
	}()
}

func TestQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	envs := randomEnvs(rng, 2000)
	tr := BuildFromEnvelopes(8, envs)
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		q := geom.NewEnvelope(x, y, x+rng.Float64()*50, y+rng.Float64()*50)
		got := tr.Query(q, nil)
		want := bruteQuery(envs, q)
		sortIDs(got)
		sortIDs(want)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d hits, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d: mismatch at %d", i, j)
			}
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]geom.Point, 1000)
	tr := New(6)
	for i := range pts {
		pts[i] = geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		tr.Insert(pts[i].Envelope(), int32(i))
	}
	tr.Build()
	for trial := 0; trial < 20; trial++ {
		qx, qy := rng.Float64()*100, rng.Float64()*100
		k := 1 + rng.Intn(20)
		got := tr.KNN(qx, qy, k, nil)
		if len(got) != k {
			t.Fatalf("knn returned %d, want %d", len(got), k)
		}
		// Brute force.
		dists := make([]float64, len(pts))
		for i, p := range pts {
			dists[i] = math.Hypot(p.X-qx, p.Y-qy)
		}
		sorted := append([]float64(nil), dists...)
		sort.Float64s(sorted)
		for i, nb := range got {
			if math.Abs(nb.Distance-sorted[i]) > 1e-9 {
				t.Fatalf("trial %d: neighbor %d distance %v, want %v", trial, i, nb.Distance, sorted[i])
			}
			if i > 0 && got[i-1].Distance > nb.Distance {
				t.Fatal("knn results not sorted")
			}
		}
	}
}

func TestKNNWithExactRefinement(t *testing.T) {
	// Envelope distance underestimates for non-point geometries; the
	// exact callback must reorder results.
	tr := New(4)
	// Entry 0: big box whose envelope is close but whose "exact"
	// distance is far.
	tr.Insert(geom.NewEnvelope(1, 0, 2, 1), 0)
	// Entry 1: envelope slightly farther but exact distance near.
	tr.Insert(geom.NewEnvelope(3, 0, 4, 1), 1)
	tr.Build()
	exact := func(id int32) float64 {
		if id == 0 {
			return 100
		}
		return 3
	}
	got := tr.KNN(0, 0, 2, exact)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 0 {
		t.Errorf("got %v", got)
	}
	if got[0].Distance != 3 || got[1].Distance != 100 {
		t.Errorf("distances = %v", got)
	}
}

func TestKNNEdgeCases(t *testing.T) {
	tr := BuildFromEnvelopes(4, []geom.Envelope{geom.NewPoint(1, 1).Envelope()})
	if got := tr.KNN(0, 0, 0, nil); got != nil {
		t.Errorf("k=0 → %v", got)
	}
	got := tr.KNN(0, 0, 10, nil)
	if len(got) != 1 {
		t.Errorf("k beyond size → %d results", len(got))
	}
}

func TestTreeInvariantsAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 5, 17, 100, 1234} {
		for _, order := range []int{2, 4, 16} {
			tr := BuildFromEnvelopes(order, randomEnvs(rng, n))
			if err := tr.validate(); err != nil {
				t.Errorf("n=%d order=%d: %v", n, order, err)
			}
			if tr.Len() != n {
				t.Errorf("n=%d: Len=%d", n, tr.Len())
			}
		}
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small := BuildFromEnvelopes(10, randomEnvs(rng, 50))
	big := BuildFromEnvelopes(10, randomEnvs(rng, 5000))
	if small.Height() > big.Height() {
		t.Errorf("heights: small=%d big=%d", small.Height(), big.Height())
	}
	if big.Height() > 5 {
		t.Errorf("5000 entries at order 10 should give height ≤ 5, got %d", big.Height())
	}
}

func TestQueryAll(t *testing.T) {
	tr := BuildFromEnvelopes(4, randomEnvs(rand.New(rand.NewSource(5)), 10))
	ids := tr.QueryAll()
	if len(ids) != 10 {
		t.Errorf("len = %d", len(ids))
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	envs := randomEnvs(rng, 500)
	tr := BuildFromEnvelopes(7, envs)
	data, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Order() != 7 || tr2.Len() != 500 {
		t.Fatalf("order=%d len=%d", tr2.Order(), tr2.Len())
	}
	if err := tr2.validate(); err != nil {
		t.Fatal(err)
	}
	q := geom.NewEnvelope(100, 100, 300, 300)
	got1 := tr.Query(q, nil)
	got2 := tr2.Query(q, nil)
	sortIDs(got1)
	sortIDs(got2)
	if len(got1) != len(got2) {
		t.Fatalf("results differ: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatal("result mismatch after round trip")
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := Unmarshal([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err == nil {
		t.Error("bad magic must fail")
	}
	tr := BuildFromEnvelopes(4, []geom.Envelope{geom.NewPoint(1, 1).Envelope()})
	data, _ := tr.Marshal()
	// Truncated.
	if _, err := Unmarshal(data[:len(data)-4]); err == nil {
		t.Error("truncated input must fail")
	}
	// Trailing garbage.
	if _, err := Unmarshal(append(data, 0xFF)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestDefaultOrder(t *testing.T) {
	if New(0).Order() != DefaultOrder {
		t.Error("order 0 must select default")
	}
	if New(1).Order() != DefaultOrder {
		t.Error("order 1 must select default")
	}
}

func TestPropQueryCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%300) + 1
		envs := randomEnvs(r, n)
		tr := BuildFromEnvelopes(2+r.Intn(10), envs)
		x, y := r.Float64()*1000, r.Float64()*1000
		q := geom.NewEnvelope(x, y, x+r.Float64()*200, y+r.Float64()*200)
		got := tr.Query(q, nil)
		want := bruteQuery(envs, q)
		if len(got) != len(want) {
			return false
		}
		sortIDs(got)
		sortIDs(want)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropMarshalLossless(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw % 200)
		tr := BuildFromEnvelopes(4, randomEnvs(r, n))
		data, err := tr.Marshal()
		if err != nil {
			return false
		}
		tr2, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return tr2.Len() == n && tr2.validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
