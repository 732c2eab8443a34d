package stats

import (
	"testing"

	"stark/internal/geom"
	"stark/internal/stobject"
)

func dpt(x, y float64) stobject.STObject { return stobject.New(geom.NewPoint(x, y)) }

func TestIncrementalCountsAndExtents(t *testing.T) {
	inc := NewIncremental(2, 8)
	inc.ApplyInsert(0, dpt(1, 1))
	inc.ApplyInsert(0, stobject.NewWithTime(geom.NewPoint(2, 2), stobject.Instant(10)))
	inc.ApplyInsert(1, dpt(9, 9))
	inc.ApplyDelete(0, dpt(1, 1))

	s := inc.Summary()
	if s.Count != 2 || s.Parts[0].Count != 1 || s.Parts[1].Count != 1 {
		t.Fatalf("counts total=%d p0=%d p1=%d", s.Count, s.Parts[0].Count, s.Parts[1].Count)
	}
	if s.Timed != 1 || s.TimeMin != 10 || s.TimeMax != 10 {
		t.Fatalf("timed=%d range=[%d,%d]", s.Timed, s.TimeMin, s.TimeMax)
	}
	// MBR is grow-only: it still covers the deleted point.
	if !s.MBR.ContainsPoint(1, 1) || !s.MBR.ContainsPoint(9, 9) {
		t.Fatalf("MBR %v", s.MBR)
	}
	if s.Grid == nil || s.Grid.Total != 2 {
		t.Fatalf("grid %+v", s.Grid)
	}
}

func TestIncrementalGridMaterialisesAtCap(t *testing.T) {
	inc := NewIncremental(1, 4)
	for i := 0; i < gridSeedCap; i++ {
		inc.ApplyInsert(0, dpt(float64(i%50), float64(i%37)))
	}
	if inc.sum.Grid == nil {
		t.Fatal("grid not materialised at seed cap")
	}
	if inc.sum.Grid.Total != float64(gridSeedCap) {
		t.Fatalf("grid total %v, want %d", inc.sum.Grid.Total, gridSeedCap)
	}
	// Points outside the frozen bounds clamp instead of corrupting.
	inc.ApplyInsert(0, dpt(1e6, -1e6))
	inc.ApplyDelete(0, dpt(1e6, -1e6))
	if inc.sum.Grid.Total != float64(gridSeedCap) {
		t.Fatalf("grid total %v after clamped insert+delete", inc.sum.Grid.Total)
	}
	for _, c := range inc.sum.Grid.Cells {
		if c < 0 {
			t.Fatal("negative histogram cell")
		}
	}
}

func TestIncrementalSummaryIsDeepCopy(t *testing.T) {
	inc := NewIncremental(1, 4)
	inc.ApplyInsert(0, dpt(5, 5))
	s1 := inc.Summary()
	inc.ApplyInsert(0, dpt(6, 6))
	s2 := inc.Summary()
	if s1.Count != 1 || s2.Count != 2 {
		t.Fatalf("snapshots share state: s1=%d s2=%d", s1.Count, s2.Count)
	}
	if s1.Grid != nil && s2.Grid != nil && &s1.Grid.Cells[0] == &s2.Grid.Cells[0] {
		t.Fatal("histogram cells aliased between snapshots")
	}
	s1.Parts[0].Count = 99
	if inc.sum.Parts[0].Count == 99 {
		t.Fatal("mutating a snapshot leaked into the maintainer")
	}
}
