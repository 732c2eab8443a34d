package stark_test

// StreamEncodedContext against StreamParallelContext, the row-at-a-time
// action it shares its windowed loop with: encoding inside the
// partition tasks must yield the same rows in the same order on every
// layout, account the same "stream" phase, and stop the same way.

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
	layouts := []struct {
		name string
		base *stark.Dataset[int]
	}{
		{"plain", stark.Parallelize(ctx, tuples, 5)},
		{"grid", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(4))},
		{"bsp", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.BSP(150))},
		{"grid+index", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(4)).Index(stark.Persistent(8))},
		{"grid+columnar", stark.Parallelize(ctx, tuples, 5).PartitionBy(stark.Grid(4)).Columnar()},
		{"live-snapshot", md.Snapshot()},
	}
	total := 0
	for _, layout := range layouts {
		for trial := 0; trial < 4; trial++ {
			chain := func() *stark.Dataset[int] {
				if trial == 0 {
					return layout.base // no predicate: every partition, every row
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
			total += int(wantRows)
		}
	}
	if total < len(layouts)*len(tuples) {
		t.Fatalf("only %d rows streamed; the comparison is vacuous", total)
	}
}

func TestStreamEncodedStops(t *testing.T) {
	ctx := stark.NewContext(2)
	base := fpTestBase(t, ctx) // 100 rows in 4 partitions, windows of 2

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := base.StreamEncodedContext(cctx, appendRow, func([]byte, int64) bool {
		t.Error("sink called on a cancelled context")
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled stream returned %v, want context.Canceled", err)
	}

	// Cancelled while the consumer holds the first chunk: the window's
	// second chunk is not delivered and the second window never runs.
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

	delivered = 0
	if err := base.StreamEncodedContext(context.Background(), appendRow, func(_ []byte, n int64) bool {
		delivered += n
		return false
	}); err != nil || delivered != 25 {
		t.Errorf("sink false: error %v after %d rows, want nil after 25", err, delivered)
	}

	boom := errors.New("unencodable")
	err = base.StreamEncodedContext(context.Background(), func(dst []byte, kv stark.Tuple[int]) ([]byte, error) {
		if kv.Value == 60 { // third partition: the second window
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
