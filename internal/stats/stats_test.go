package stats

import (
	"math"
	"testing"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
	"stark/internal/temporal"
)

// grid4 builds 4 partitions of 100 points each, partition p occupying
// the square [100p, 100p+10]², with timestamps 1000p..1000p+99.
func grid4(ctx *engine.Context) *engine.Dataset[engine.Pair[stobject.STObject, int]] {
	parts := make([][]engine.Pair[stobject.STObject, int], 4)
	for p := 0; p < 4; p++ {
		for i := 0; i < 100; i++ {
			x := float64(100*p) + float64(i%10)
			y := float64(i / 10)
			t := temporal.Instant(1000*p + i)
			obj := stobject.NewWithTime(geom.Point{X: x, Y: y}, t)
			parts[p] = append(parts[p], engine.NewPair(obj, p*100+i))
		}
	}
	return engine.FromPartitions(ctx, parts)
}

func TestCollectSummary(t *testing.T) {
	ctx := engine.NewContext(4)
	sum, err := Collect(grid4(ctx), 16)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 400 {
		t.Errorf("count = %d, want 400", sum.Count)
	}
	if len(sum.Parts) != 4 {
		t.Fatalf("parts = %d", len(sum.Parts))
	}
	for p, ps := range sum.Parts {
		if ps.Count != 100 {
			t.Errorf("partition %d count = %d", p, ps.Count)
		}
		wantMin := float64(100 * p)
		if ps.MBR.MinX != wantMin || ps.MBR.MaxX != wantMin+9 {
			t.Errorf("partition %d MBR X = [%v, %v], want [%v, %v]",
				p, ps.MBR.MinX, ps.MBR.MaxX, wantMin, wantMin+9)
		}
		if ps.Timed != 100 || ps.TimeMin != int64(1000*p) || ps.TimeMax != int64(1000*p+99) {
			t.Errorf("partition %d temporal = (%d, %d, %d)", p, ps.Timed, ps.TimeMin, ps.TimeMax)
		}
	}
	if sum.TimeMin != 0 || sum.TimeMax != 3099 {
		t.Errorf("global time = [%d, %d]", sum.TimeMin, sum.TimeMax)
	}
	if got := ctx.Recorder().Snapshot()[engine.StatsRecords]; got != 400 {
		t.Errorf("StatsRecords = %d, want 400", got)
	}
	if snap := ctx.Recorder().Snapshot(); snap[engine.ElementsScanned] != 0 {
		t.Errorf("stats pass charged ElementsScanned = %d, want 0", snap[engine.ElementsScanned])
	}
}

func TestHistogramEstimate(t *testing.T) {
	ctx := engine.NewContext(4)
	sum, err := Collect(grid4(ctx), 32)
	if err != nil {
		t.Fatal(err)
	}
	// A window over partition 0's square only: ~100 of 400 records.
	est := sum.Grid.EstimateRows(geom.NewEnvelope(-1, -1, 11, 11))
	if math.Abs(est-100) > 25 {
		t.Errorf("estimate over partition 0 = %v, want ~100", est)
	}
	// A window over empty space between the clusters.
	if est := sum.Grid.EstimateRows(geom.NewEnvelope(40, 40, 60, 60)); est > 5 {
		t.Errorf("estimate over empty space = %v, want ~0", est)
	}
	// Selectivity of the full extent is ~1.
	if sel := sum.Selectivity(sum.MBR); sel < 0.9 {
		t.Errorf("full-extent selectivity = %v", sel)
	}
}

func TestVisitPruning(t *testing.T) {
	ctx := engine.NewContext(4)
	sum, err := Collect(grid4(ctx), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Spatial pruning: only partition 2 intersects.
	visit := sum.Visit([]geom.Envelope{geom.NewEnvelope(205, 2, 208, 5)}, nil)
	if len(visit) != 1 || visit[0] != 2 {
		t.Errorf("visit = %v, want [2]", visit)
	}
	// Temporal pruning: window [1500, 2500] overlaps only partition 2
	// (partition p spans [1000p, 1000p+99]).
	visit = sum.Visit(nil, []TimeFilter{{Begin: 1500, End: 2500}})
	if len(visit) != 1 || visit[0] != 2 {
		t.Errorf("temporal visit = %v, want [2]", visit)
	}
	// Combined: spatial hits partition 2, temporal only partition 1 →
	// nothing left.
	visit = sum.Visit([]geom.Envelope{geom.NewEnvelope(205, 2, 208, 5)},
		[]TimeFilter{{Begin: 1200, End: 1300}})
	if len(visit) != 0 {
		t.Errorf("combined visit = %v, want empty", visit)
	}
	if rows := sum.RowsIn([]int{1, 2}); rows != 200 {
		t.Errorf("RowsIn = %d", rows)
	}
}

func TestTemporalSelectivity(t *testing.T) {
	ctx := engine.NewContext(4)
	sum, err := Collect(grid4(ctx), 16)
	if err != nil {
		t.Fatal(err)
	}
	if sel := sum.TemporalSelectivity(10_000, 20_000); sel != 0 {
		t.Errorf("disjoint window selectivity = %v", sel)
	}
	full := sum.TemporalSelectivity(0, 3099)
	if math.Abs(full-1) > 1e-9 {
		t.Errorf("full window selectivity = %v, want 1", full)
	}
	half := sum.TemporalSelectivity(0, 1549)
	if half <= 0.3 || half >= 0.7 {
		t.Errorf("half window selectivity = %v, want ~0.5", half)
	}
}

func TestCollectEmpty(t *testing.T) {
	ctx := engine.NewContext(2)
	ds := engine.Parallelize(ctx, []engine.Pair[stobject.STObject, int]{}, 3)
	sum, err := Collect(ds, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Count != 0 || sum.Grid != nil {
		t.Errorf("empty summary = %+v", sum)
	}
	if visit := sum.Visit([]geom.Envelope{geom.NewEnvelope(0, 0, 1, 1)}, nil); len(visit) != 0 {
		t.Errorf("visit on empty = %v", visit)
	}
}
