package workload

import (
	"testing"

	"stark/internal/geom"
	"stark/internal/stobject"
)

func TestTrajectoriesShape(t *testing.T) {
	reports := Trajectories(TrajectoryConfig{Objects: 5, Ticks: 20, Seed: 1})
	if len(reports) != 100 {
		t.Fatalf("reports = %d", len(reports))
	}
	// Ordered by object then sequence; all timed; inside the space.
	space := geom.NewEnvelope(0, 0, 1000, 1000)
	for i, kv := range reports {
		wantObj, wantSeq := i/20, i%20
		if kv.Value.ObjectID != wantObj || kv.Value.Seq != wantSeq {
			t.Fatalf("report %d = %+v", i, kv.Value)
		}
		iv, ok := kv.Key.Time()
		if !ok || iv.Start != stobject.Instant(wantSeq)*60 {
			t.Fatalf("report %d time = %v", i, iv)
		}
		c := kv.Key.Centroid()
		if !space.ContainsPoint(c.X, c.Y) {
			t.Fatalf("report %d escapes the space: %v", i, c)
		}
	}
}

func TestTrajectoriesDeterministicAndContinuous(t *testing.T) {
	a := Trajectories(TrajectoryConfig{Objects: 3, Ticks: 50, Seed: 2})
	b := Trajectories(TrajectoryConfig{Objects: 3, Ticks: 50, Seed: 2})
	for i := range a {
		if a[i].Key.Centroid() != b[i].Key.Centroid() {
			t.Fatal("same seed must give same trajectories")
		}
	}
	// Steps are bounded: consecutive reports of the same object stay
	// within ~2×(1.5×speed) even after a border bounce.
	cfg := TrajectoryConfig{Objects: 3, Ticks: 50, Seed: 2}.withDefaults()
	maxStep := 2 * 1.5 * cfg.Speed
	for i := 1; i < len(a); i++ {
		if a[i].Value.ObjectID != a[i-1].Value.ObjectID {
			continue
		}
		d := geom.Euclidean(a[i-1].Key.Centroid(), a[i].Key.Centroid())
		if d > maxStep {
			t.Fatalf("step %d jumps %v > %v", i, d, maxStep)
		}
	}
}

func TestTrajectoryLines(t *testing.T) {
	reports := Trajectories(TrajectoryConfig{Objects: 4, Ticks: 30, Seed: 3})
	lines := TrajectoryLines(reports)
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	for obj, ls := range lines {
		if ls.NumPoints() != 30 {
			t.Errorf("object %d line has %d points", obj, ls.NumPoints())
		}
		if e := ls.Envelope(); e.Width()+e.Height() <= 0 {
			t.Errorf("object %d has zero-length trajectory", obj)
		}
	}
	// Simplification shortens the vertex list but stays close.
	for _, ls := range lines {
		s := geom.Simplify(ls, 5)
		if s.NumPoints() > ls.NumPoints() {
			t.Error("simplify grew the line")
		}
	}
}
