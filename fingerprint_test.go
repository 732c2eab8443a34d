package stark_test

import (
	"context"
	"testing"

	"stark"
)

func fpTestBase(t *testing.T, ctx *stark.Context) *stark.Dataset[int] {
	t.Helper()
	var tuples []stark.Tuple[int]
	for i := 0; i < 100; i++ {
		tuples = append(tuples, stark.NewTuple(pointAt(float64(i%10), float64(i/10)), i))
	}
	return stark.Parallelize(ctx, tuples, 4)
}

func pointAt(x, y float64) stark.STObject {
	return stark.NewSTObject(stark.NewPoint(x, y))
}

func mustFingerprint(t *testing.T, d *stark.Dataset[int]) string {
	t.Helper()
	fp, err := d.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestFingerprintStableForRepeatedQuery(t *testing.T) {
	ctx := stark.NewContext(2)
	base := fpTestBase(t, ctx)
	g, err := stark.ParseWKT("POLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	q := stark.NewSTObject(g)
	a := mustFingerprint(t, base.Intersects(q))
	b := mustFingerprint(t, base.Intersects(q))
	if a != b {
		t.Errorf("repeated identical chains fingerprint differently: %s vs %s", a, b)
	}
	if c := mustFingerprint(t, base.Contains(q)); c == a {
		t.Error("different predicates share a fingerprint")
	}
	if d := mustFingerprint(t, base.Intersects(q).Optimize(false)); d == a {
		t.Error("optimizer setting not part of the fingerprint")
	}
}

func TestFingerprintChangesAcrossGenerations(t *testing.T) {
	ctx := stark.NewContext(2)
	q := stark.NewSTObject(stark.NewPoint(3, 3))
	a := mustFingerprint(t, fpTestBase(t, ctx).Intersects(q))
	// The same logical data, re-built: a new generation, so every old
	// fingerprint is invalid by construction.
	b := mustFingerprint(t, fpTestBase(t, ctx).Intersects(q))
	if a == b {
		t.Error("re-built base dataset did not change the fingerprint")
	}
}

func TestFingerprintRejectsOpaqueChains(t *testing.T) {
	ctx := stark.NewContext(2)
	base := fpTestBase(t, ctx)
	q := stark.NewSTObject(stark.NewPoint(3, 3))
	if _, err := base.Where(q, stark.Intersects, 0).Fingerprint(); err == nil {
		t.Error("custom Where predicate fingerprinted without error")
	}
	if _, err := stark.ReKey(base, func(k stark.STObject, _ int) stark.STObject { return k }).Fingerprint(); err == nil {
		t.Error("ReKey chain fingerprinted without error")
	}
	// A custom predicate already folded into the lineage (here by
	// Cache) is just as opaque as a pending one.
	if _, err := base.Where(q, stark.Intersects, 0).Cache().Fingerprint(); err == nil {
		t.Error("flushed custom Where predicate fingerprinted without error")
	}
	// A custom distance function is an opaque closure; the built-in
	// planar distance is not.
	manhattan := func(a, b stark.Point) float64 {
		dx, dy := a.X-b.X, a.Y-b.Y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	if _, err := base.WithinDistance(q, 10, manhattan).Fingerprint(); err == nil {
		t.Error("custom DistanceFunc fingerprinted without error")
	}
	if _, err := base.WithinDistance(q, 10, nil).Fingerprint(); err != nil {
		t.Errorf("built-in distance refused to fingerprint: %v", err)
	}
}

func TestFingerprintDistinguishesSameEnvelopeGeometries(t *testing.T) {
	ctx := stark.NewContext(2)
	base := fpTestBase(t, ctx)
	// A rectangle and a triangle sharing the same bounding envelope
	// are different queries and must not share a cache key.
	rect, err := stark.ParseWKT("POLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	tri, err := stark.ParseWKT("POLYGON ((0 0, 5 0, 0 5, 0 0))")
	if err != nil {
		t.Fatal(err)
	}
	a := mustFingerprint(t, base.Intersects(stark.NewSTObject(rect)))
	b := mustFingerprint(t, base.Intersects(stark.NewSTObject(tri)))
	if a == b {
		t.Errorf("same-envelope, different-shape queries share fingerprint %s", a)
	}
}

func TestStreamParallelContextCancels(t *testing.T) {
	ctx := stark.NewContext(2)
	base := fpTestBase(t, ctx)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := base.StreamParallelContext(cctx, func(stark.Tuple[int]) bool { return true })
	if err != context.Canceled {
		t.Errorf("cancelled stream returned %v, want context.Canceled", err)
	}
	// A background context streams everything.
	n := 0
	if err := base.StreamParallelContext(context.Background(), func(stark.Tuple[int]) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("streamed %d rows, want 100", n)
	}
}
