package stark_test

// StreamEncodedContext against StreamParallelContext, the row-at-a-time
// action it shares its ordered job with: encoding inside the tasks must
// yield the same rows in the same order on every layout, account the
// same "stream" phase, and stop the same way.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"stark"
)

// appendRow is the test encoder: "<value> <key>\n".
func appendRow(dst []byte, kv stark.Tuple[int]) ([]byte, error) {
	dst = strconv.AppendInt(dst, int64(kv.Value), 10)
	dst = append(dst, ' ')
	dst = append(dst, kv.Key.String()...)
	return append(dst, '\n'), nil
}

func TestStreamEncodedAgreesWithStreamParallelAcrossLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	ctx := stark.NewContext(4)
	tuples := colTuples(rng, 900)

	sp, err := stark.Grid(3).Build([]stark.STObject{
		stark.NewSTObject(stark.NewPoint(0, 0)),
		stark.NewSTObject(stark.NewPoint(1000, 1000)),
	})
	if err != nil {
		t.Fatal(err)
	}
	md := stark.NewMutableDataset[int](ctx, "encoded-live", sp, 8)
	recs := make([]stark.LiveRecord[int], len(tuples))
	for i, kv := range tuples {
		recs[i] = stark.LiveRecord[int]{ID: int64(i), Key: kv.Key, Value: kv.Value}
	}
	if _, err := md.Insert(recs...); err != nil {
		t.Fatal(err)
	}
	// The last two layouts answer an attribute predicate from postings
	// (the sidecar's, prebuilt, and the ones the mutable dataset
	// maintains), so both postings probes stream here too. They hold
	// one partition: at 900 rows the planner prices a postings probe
	// per partition above the scan of more.
	schema := stark.NewAttrSchema[int]().Int64("bucket", func(_ stark.STObject, v int) int64 { return int64(v % 30) })
	one, err := stark.Grid(1).Build([]stark.STObject{
		stark.NewSTObject(stark.NewPoint(0, 0)),
		stark.NewSTObject(stark.NewPoint(1000, 1000)),
	})
	if err != nil {
		t.Fatal(err)
	}
	mdAttr := stark.NewMutableDataset[int](ctx, "encoded-live-attr", one, 8)
	mdAttr.SetAttrFields(schema)
	if _, err := mdAttr.Insert(recs...); err != nil {
		t.Fatal(err)
	}
	// A layout whose first partition is larger than a morsel (4096 rows),
	// so its stream crosses a morsel boundary, beside three small ones:
	// 5000 rows in the first cell of a 2×2 grid over [0, 2000]² (the two
	// corner rows span it), about 40 in each of the others.
	crowded := append(colTuples(rng, 5000), stark.NewTuple(pointAt(0, 0), 5000), stark.NewTuple(pointAt(2000, 2000), 5001))
	for i := 0; i < 120; i++ {
		cell := [][2]float64{{1500, 500}, {500, 1500}, {1500, 1500}}[i%3]
		crowded = append(crowded, stark.NewTuple(pointAt(cell[0]+float64(i), cell[1]+float64(i)), len(crowded)))
	}
	layouts := []struct {
		name     string
		base     *stark.Dataset[int]
		postings bool
	}{
		{"plain", stark.Parallelize(ctx, tuples, 5), false},
		{"grid+morsels", stark.Parallelize(ctx, crowded, 3).PartitionBy(stark.Grid(2)), false},
		{"grid", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(4)), false},
		{"bsp", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.BSP(150)), false},
		{"grid+index", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(4)).Index(stark.Persistent(8)), false},
		{"grid+columnar", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(4)).Columnar(), false},
		{"live-snapshot", md.Snapshot(), false},
		{"grid+index+schema", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(1)).Index(stark.Persistent(8)).
			WithSchema(schema).AttrIndex("bucket").FilterEq("bucket", 3), true},
		{"live+attr-fields", mdAttr.Snapshot().WithSchema(schema).FilterEq("bucket", 3), true},
	}
	total, unfiltered := 0, 0
	for _, layout := range layouts {
		if !layout.postings {
			unfiltered++
		}
		for trial := 0; trial < 4; trial++ {
			chain := func() *stark.Dataset[int] {
				if trial == 0 {
					return layout.base // no spatial predicate: every partition
				}
				x, y := float64(trial)*150, float64(trial)*120
				q, err := stark.FromWKT(fmt.Sprintf("POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))",
					x, y, x+400, y, x+400, y+350, x, y+350, x, y))
				if err != nil {
					t.Fatal(err)
				}
				return layout.base.Intersects(q)
			}
			rows := chain()
			var want []byte
			var wantRows int64
			if err := rows.StreamParallelContext(context.Background(), func(kv stark.Tuple[int]) bool {
				want, _ = appendRow(want, kv)
				wantRows++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			encoded := chain()
			var got []byte
			var gotRows int64
			if err := encoded.StreamEncodedContext(context.Background(), appendRow, func(chunk []byte, n int64) bool {
				got = append(got, chunk...)
				gotRows += n
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || gotRows != wantRows {
				t.Errorf("%s trial %d: encoded stream %d rows / %d bytes, row stream %d rows / %d bytes",
					layout.name, trial, gotRows, len(got), wantRows, len(want))
			}
			// The same phase, the same rows, the same engine work.
			a, b := rows.Trace(), encoded.Trace()
			if a.Rows != wantRows || b.Rows != wantRows {
				t.Errorf("%s trial %d: trace rows %d (row) and %d (encoded), want %d", layout.name, trial, a.Rows, b.Rows, wantRows)
			}
			last := b.Children[len(b.Children)-1]
			if last.Op != "stream" || last.Rows != wantRows {
				t.Errorf("%s trial %d: last phase %q with %d rows, want stream with %d", layout.name, trial, last.Op, last.Rows, wantRows)
			}
			for _, c := range []string{"elements_scanned", "tasks_launched", "index_probes", "kernel_batches"} {
				if a.Counter(c) != b.Counter(c) {
					t.Errorf("%s trial %d: %s = %d on the row stream, %d on the encoded stream",
						layout.name, trial, c, a.Counter(c), b.Counter(c))
				}
			}
			// Two morsels of the crowded partition and the three small ones.
			if layout.name == "grid+morsels" && trial == 0 && last.Counter("tasks_launched") != 5 {
				t.Errorf("%s: %d tasks, want 5: the stream crossed no morsel boundary", layout.name, last.Counter("tasks_launched"))
			}
			// Without a spatial predicate the only probe there is is the
			// postings probe.
			if layout.postings && trial == 0 && (wantRows == 0 || b.Counter("index_probes") == 0 || b.Counter("elements_scanned") != 0) {
				t.Errorf("%s: %d rows after %d probes and %d rows scanned; the postings probe did not answer",
					layout.name, wantRows, b.Counter("index_probes"), b.Counter("elements_scanned"))
			}
			total += int(wantRows)
		}
	}
	if total < unfiltered*len(tuples) {
		t.Fatalf("only %d rows streamed; the comparison is vacuous", total)
	}
}

// The stream runs at most 2 × parallelism tasks (here: partitions) beyond
// the last chunk its consumer has returned from, and with parallelism 1
// none: the caller then computes a chunk only when it is due. Stopping
// on the first chunk therefore leaves 1 of the 4 partitions touched at
// parallelism 1, and up to all 4 at parallelism 2.
func TestStreamEncodedStops(t *testing.T) {
	for _, par := range []int{1, 2} {
		testStreamEncodedStops(t, par)
	}
}

func testStreamEncodedStops(t *testing.T, par int) {
	lookAhead := int64(1)
	if par > 1 {
		lookAhead = min(4, 2*int64(par))
	}
	ctx := stark.NewContext(par)
	base := fpTestBase(t, ctx) // 100 rows in 4 partitions

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := base.StreamEncodedContext(cctx, appendRow, func([]byte, int64) bool {
		t.Error("sink called on a cancelled context")
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled stream returned %v, want context.Canceled", err)
	}

	// Cancelled while the consumer holds the first chunk: no second chunk
	// is delivered, whatever was computed meanwhile.
	cctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var delivered int64
	err = base.StreamEncodedContext(cctx, appendRow, func(_ []byte, n int64) bool {
		delivered += n
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) || delivered != 25 {
		t.Errorf("cancel mid-stream: error %v after %d rows, want context.Canceled after 25", err, delivered)
	}

	// The same cancellation over partition trees: the probes run inside
	// the tasks, so no partition beyond the look-ahead is ever probed.
	keys := make([]stark.STObject, 100)
	recs := make([]stark.LiveRecord[int], 100)
	for i := range recs {
		keys[i] = pointAt(float64(i%10), float64(i/10))
		recs[i] = stark.LiveRecord[int]{ID: int64(i), Key: keys[i], Value: i}
	}
	sp, err := stark.Grid(2).Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	md := stark.NewMutableDataset[int](ctx, "stops-live", sp, 8)
	if _, err := md.Insert(recs...); err != nil {
		t.Fatal(err)
	}
	everything := stark.NewSTObject(stark.NewEnvelope(-1, -1, 11, 11).ToPolygon())
	for name, indexed := range map[string]*stark.Dataset[int]{
		"persistent": base.Index(stark.Persistent(4)).Intersects(everything),
		"live":       md.Snapshot().Intersects(everything),
	} {
		cctx, cancel := context.WithCancel(context.Background())
		err := indexed.StreamEncodedContext(cctx, appendRow, func([]byte, int64) bool {
			cancel()
			return true
		})
		if probes := indexed.Trace().Counter("index_probes"); !errors.Is(err, context.Canceled) || probes < 1 || probes > lookAhead {
			t.Errorf("%s, parallelism %d: cancel after the first chunk: error %v after %d of 4 partitions probed, want context.Canceled after 1 to %d",
				name, par, err, probes, lookAhead)
		}
		cancel()
	}

	// And over a join: the pairs are found inside the tasks, so the probe
	// partitions beyond the look-ahead are never streamed and their
	// buckets of the build side are never indexed.
	var rep stark.JoinReport
	grid := base.PartitionBy(stark.Grid(2)) // the layout of sp: base holds the same keys
	joined := stark.Join(grid, grid, stark.JoinOptions{IndexOrder: -1, Strategy: stark.JoinCoPartition, Report: &rep})
	cctx, cancel = context.WithCancel(context.Background())
	err = joined.StreamEncodedContext(cctx, func(dst []byte, kv stark.Tuple[stark.JoinRow[int, int]]) ([]byte, error) {
		return appendRow(dst, stark.NewTuple(kv.Key, kv.Value.Right))
	}, func([]byte, int64) bool {
		cancel()
		return true
	})
	if tasks := joined.Trace().Counter("tasks_launched"); !errors.Is(err, context.Canceled) || rep.Tasks != 4 ||
		tasks < 1 || tasks > lookAhead || int64(rep.TreesBuilt) != tasks {
		t.Errorf("join, parallelism %d: cancel after the first chunk: error %v after %d tasks and %d trees of %d planned probes, want context.Canceled after 1 to %d of 4, a tree each",
			par, err, tasks, rep.TreesBuilt, rep.Tasks, lookAhead)
	}
	cancel()

	delivered = 0
	if err := base.StreamEncodedContext(context.Background(), appendRow, func(_ []byte, n int64) bool {
		delivered += n
		return false
	}); err != nil || delivered != 25 {
		t.Errorf("sink false: error %v after %d rows, want nil after 25", err, delivered)
	}

	boom := errors.New("unencodable")
	err = base.StreamEncodedContext(context.Background(), func(dst []byte, kv stark.Tuple[int]) ([]byte, error) {
		if kv.Value == 60 { // third partition
			return dst, boom
		}
		return appendRow(dst, kv)
	}, func([]byte, int64) bool { return true })
	if !errors.Is(err, boom) {
		t.Errorf("encoder error: stream returned %v", err)
	}

	if err := base.StreamEncodedContext(context.Background(), nil, func([]byte, int64) bool { return true }); err == nil {
		t.Error("StreamEncodedContext(nil encoder) must error")
	}
	if err := base.StreamEncodedContext(context.Background(), appendRow, nil); err == nil {
		t.Error("StreamEncodedContext(nil sink) must error")
	}
}
