package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stark"
	"stark/internal/geom"
	"stark/internal/workload"
)

// feature, featureMap and geometryJSON are the map form of a reply
// line: json.Marshal of it is the byte oracle appendFeature is held to.

// feature renders one catalog row as a GeoJSON feature, its time the
// start of the key's interval. dist and label optionally add distance /
// cluster properties.
func feature(kv stark.Tuple[eventValue], dist *float64, label *int) map[string]interface{} {
	iv, _ := kv.Key.Time()
	props := map[string]interface{}{
		"id":       kv.Value.ID,
		"category": kv.Value.category(),
		"time":     iv.Start,
	}
	if dist != nil {
		props["distance"] = *dist
	}
	if label != nil {
		props["cluster"] = *label
	}
	return map[string]interface{}{
		"type":       "Feature",
		"geometry":   geometryJSON(kv.Key.Geo()),
		"properties": props,
	}
}

// featureMap is feature plus the join partner under properties.right
// when there is one.
func featureMap(key stark.STObject, ev eventValue, x extras) map[string]interface{} {
	f := feature(stark.NewTuple(key, ev), x.distance, x.cluster)
	if x.right != nil {
		iv, _ := x.right.RightKey.Time()
		f["properties"].(map[string]interface{})["right"] = map[string]interface{}{
			"id":       x.right.Right.ID,
			"category": x.right.Right.category(),
			"time":     iv.Start,
		}
	}
	return f
}

// valueOf is the catalog value (id, category), made by catalogRow.
func valueOf(id int64, category string) eventValue {
	row, err := catalogRow(workload.Event{ID: int(id), Category: category, WKT: "POINT (0 0)"})
	if err != nil {
		panic(err)
	}
	return row.Value
}

// String renders a value for failure messages, its category as text.
func (v eventValue) String() string {
	return fmt.Sprintf("{ID:%d category:%q}", v.ID, v.category())
}

// geometryJSON converts a geometry to its GeoJSON representation.
func geometryJSON(g geom.Geometry) map[string]interface{} {
	switch t := g.(type) {
	case geom.Point:
		return map[string]interface{}{"type": "Point", "coordinates": []float64{t.X, t.Y}}
	case geom.MultiPoint:
		coords := make([][]float64, t.NumPoints())
		for i := 0; i < t.NumPoints(); i++ {
			p := t.PointAt(i)
			coords[i] = []float64{p.X, p.Y}
		}
		return map[string]interface{}{"type": "MultiPoint", "coordinates": coords}
	case geom.LineString:
		coords := make([][]float64, t.NumPoints())
		for i := 0; i < t.NumPoints(); i++ {
			p := t.PointAt(i)
			coords[i] = []float64{p.X, p.Y}
		}
		return map[string]interface{}{"type": "LineString", "coordinates": coords}
	case geom.Polygon:
		rings := make([][][]float64, 0, 1+t.NumHoles())
		shell := t.Shell()
		ring := make([][]float64, shell.NumPoints())
		for i := 0; i < shell.NumPoints(); i++ {
			p := shell.PointAt(i)
			ring[i] = []float64{p.X, p.Y}
		}
		rings = append(rings, ring)
		for h := 0; h < t.NumHoles(); h++ {
			hr := t.HoleAt(h)
			ring := make([][]float64, hr.NumPoints())
			for i := 0; i < hr.NumPoints(); i++ {
				p := hr.PointAt(i)
				ring[i] = []float64{p.X, p.Y}
			}
			rings = append(rings, ring)
		}
		return map[string]interface{}{"type": "Polygon", "coordinates": rings}
	default:
		return map[string]interface{}{"type": "GeometryCollection", "geometries": []interface{}{}}
	}
}

// oracleLine is json.Marshal of the map form, newline included.
func oracleLine(key stark.STObject, ev eventValue, x extras) ([]byte, error) {
	line, err := json.Marshal(featureMap(key, ev, x))
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// checkAgainstOracle encodes after a non-empty prefix, so a slip that
// overwrites instead of appending shows too.
func checkAgainstOracle(t *testing.T, key stark.STObject, ev eventValue, x extras) {
	t.Helper()
	want, wantErr := oracleLine(key, ev, x)
	prefix := []byte("previous line\n")
	got, gotErr := appendFeature(append([]byte(nil), prefix...), key, ev, x)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("key %s event %+v extras %s: error %v, oracle error %v", key, ev, x, gotErr, wantErr)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("key %s: the prefix was overwritten: %q", key, got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("key %s event %+v extras %s:\n got %q\nwant %q", key, ev, x, got, want)
	}
}

// String renders the set extras for failure messages.
func (x extras) String() string {
	s := "{"
	if x.right != nil {
		s += fmt.Sprintf(" right=%s %+v", x.right.RightKey, x.right.Right)
	}
	if x.distance != nil {
		s += fmt.Sprintf(" distance=%v", *x.distance)
	}
	if x.cluster != nil {
		s += fmt.Sprintf(" cluster=%d", *x.cluster)
	}
	return s + " }"
}

var (
	oracleCategories = []string{
		"", "sports", `<script>alert("x")&amp;</script>`, `back\slash "quoted"`,
		"tab\tnewline\nreturn\rbell\afeed\fback\bnul\x00esc\x1bdel\x7f",
		"line\u2028sep para\u2029sep", "bad\xffutf8\xc0\xaf", "trunc\xe2\x80", "héllo wörld ✓ 🌍",
		"\xed\xa0\x80 surrogate", "\ufffd replacement itself",
	}
	oracleOrdinates = []float64{
		0, math.Copysign(0, -1), 1, -1, 100, 12345678, 0.5, -123.456, 1.0 / 3,
		1e-9, 1.5e-9, 9.99999e-7, 1e-6, 1.0000001e-6, 1e-5, 1e20, 9.99e20, 1e21, 1.5e21, 1e25, -1e25, 1e-10, 1e-100,
		1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	oracleInts = []int64{0, 1, -1, 42, -7919, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
)

// otherGeometries are keys that are not points.
func otherGeometries() []geom.Geometry {
	return []geom.Geometry{
		geom.NewMultiPoint([]geom.Point{{X: 1, Y: 2}, {X: 1e-7, Y: 1e21}}),
		geom.NewMultiPoint(nil),
		mustGeom("LINESTRING (0 0, 2.5 -1e22)"),
		mustGeom("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))"),
		mustGeom("POLYGON EMPTY"),
		geom.NewMultiPoint([]geom.Point{{X: math.NaN(), Y: 0}}),
		nil,
	}
}

func TestAppendFeatureMatchesMarshalOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pick := func(n int) int { return rng.Intn(n) }
	event := func() eventValue {
		return valueOf(oracleInts[pick(len(oracleInts))], oracleCategories[pick(len(oracleCategories))])
	}
	// at keys g at a drawn instant, the only place a row keeps its time.
	at := func(g geom.Geometry) stark.STObject {
		return stark.NewSTObjectWithTime(g, stark.Instant(oracleInts[pick(len(oracleInts))]))
	}
	// each returns the four kinds of line: a plain event, a join pair, a
	// kNN neighbour and a cluster member.
	each := func() []extras {
		right := joinRow{RightKey: at(geom.Point{X: 5, Y: 6}), Right: event()}
		dist := oracleOrdinates[pick(len(oracleOrdinates))]
		label := int(oracleInts[pick(len(oracleInts))])
		return []extras{{}, {right: &right}, {distance: &dist}, {cluster: &label}}
	}
	// Every ordinate, category and extra at least once, then seeded mixes.
	for _, x := range oracleOrdinates {
		for _, y := range []float64{0, x} {
			key := at(geom.Point{X: x, Y: y})
			for _, e := range each() {
				checkAgainstOracle(t, key, event(), e)
			}
			dist := x
			checkAgainstOracle(t, at(geom.Point{X: 1, Y: 2}), event(), extras{distance: &dist})
		}
	}
	for _, i := range oracleInts {
		label := int(i)
		checkAgainstOracle(t, at(geom.Point{X: 1, Y: 2}), event(), extras{cluster: &label})
	}
	for _, c := range oracleCategories {
		key := stark.NewSTObjectWithTime(geom.Point{X: 3, Y: 4}, 17)
		for _, e := range each() {
			checkAgainstOracle(t, key, valueOf(1, c), e)
		}
		right := joinRow{RightKey: stark.NewSTObjectWithTime(geom.Point{X: 5, Y: 6}, 4), Right: valueOf(3, c)}
		checkAgainstOracle(t, key, valueOf(1, "left"), extras{right: &right})
	}
	for i := 0; i < 2000; i++ {
		x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		y := oracleOrdinates[pick(len(oracleOrdinates))]
		if i%2 == 0 {
			x, y = y, float64(rng.Intn(2000)-1000)
		}
		key := at(geom.Point{X: x, Y: y})
		checkAgainstOracle(t, key, event(), each()[i%4])
	}
	// Untimed keys write time 0; catalogRow never makes one.
	for _, g := range append(otherGeometries(), geom.Point{X: 1, Y: 2}) {
		for _, e := range each() {
			checkAgainstOracle(t, at(g), event(), e)
			checkAgainstOracle(t, stark.NewSTObject(g), event(), e)
		}
	}
}

// TestAppendFeatureZeroValue: the zero value's category handle reads as
// "", on the left and as a join partner, byte-equal to the oracle.
func TestAppendFeatureZeroValue(t *testing.T) {
	key := stark.NewSTObjectWithTime(geom.Point{X: 1, Y: 2}, 3)
	right := joinRow{RightKey: key}
	for _, x := range []extras{{}, {right: &right}} {
		checkAgainstOracle(t, key, eventValue{}, x)
	}
	line, err := appendFeature(nil, key, eventValue{}, extras{right: &right})
	if err != nil || bytes.Count(line, []byte(`"category":""`)) != 2 {
		t.Errorf("zero values encode as %q, %v", line, err)
	}
}

func TestAppendFeatureNonFiniteErrorIsTheOracles(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		want := fmt.Sprintf("json: unsupported value: %v", f)
		_, err := appendFeature(nil, stark.NewSTObject(geom.Point{X: 1, Y: f}), eventValue{}, extras{})
		if err == nil || err.Error() != want {
			t.Errorf("ordinate %v: error %v, want %q", f, err, want)
		}
		_, err = appendFeature(nil, stark.NewSTObject(geom.Point{X: 1, Y: 2}), eventValue{}, extras{distance: &f})
		if err == nil || err.Error() != want {
			t.Errorf("distance %v: error %v, want %q", f, err, want)
		}
	}
}

func FuzzAppendFeature(f *testing.F) {
	f.Add(uint8(0), 1.5, -2.25, 7, "sports", int64(99), false, 0, "", int64(0), uint8(0), 0.0, 0)
	f.Add(uint8(0), 1e-9, 1e25, -1, "<>&\"\\\x01\u2028\xff", int64(-5), true, -3, "right \u2029", int64(math.MinInt64), uint8(1), 1e-7, 0)
	f.Add(uint8(0), math.NaN(), math.Inf(-1), 0, "", int64(0), true, 0, "", int64(0), uint8(2), 0.0, -1)
	f.Add(uint8(1), 3.0, 4.0, 1, "multipoint", int64(1), false, 0, "", int64(0), uint8(1), math.Inf(1), 0)
	f.Add(uint8(2), 1e21, 1e-7, 2, "line", int64(2), true, 5, "r", int64(6), uint8(2), 0.0, math.MaxInt64)
	f.Add(uint8(3), 10.0, 20.0, 3, "polygon", int64(3), false, 0, "", int64(0), uint8(3), 2.5, 4)
	f.Fuzz(func(t *testing.T, kind uint8, x, y float64, id int, category string, tm int64, join bool, rid int, rcategory string, rtm int64,
		which uint8, dist float64, label int) {
		var g geom.Geometry
		switch kind % 5 {
		case 0:
			g = geom.Point{X: x, Y: y}
		case 1:
			g = geom.NewMultiPoint([]geom.Point{{X: x, Y: y}, {X: y, Y: x}})
		case 2:
			g, _ = geom.NewLineString([]geom.Point{{X: x, Y: y}, {X: y, Y: x}})
		case 3:
			g, _ = geom.NewPolygonFromPoints([]geom.Point{{X: x, Y: y}, {X: x + 1, Y: y}, {X: x + 1, Y: y + 1}, {X: x, Y: y + 1}})
		}
		var e extras
		if join {
			e.right = &joinRow{RightKey: stark.NewSTObjectWithTime(geom.Point{X: y, Y: x}, stark.Instant(rtm)), Right: valueOf(int64(rid), rcategory)}
		}
		if which&1 != 0 {
			e.distance = &dist
		}
		if which&2 != 0 {
			e.cluster = &label
		}
		checkAgainstOracle(t, stark.NewSTObjectWithTime(g, stark.Instant(tm)), valueOf(int64(id), category), e)
	})
}

func TestAppendFeaturePointPathDoesNotAllocate(t *testing.T) {
	key := stark.NewSTObjectWithTime(geom.Point{X: 512.0625, Y: 1e-7}, 123456)
	ev := valueOf(7919, `a "quoted" <category>`)
	pair := joinRow{Left: ev, RightKey: stark.NewSTObjectWithTime(geom.Point{X: 1, Y: 2}, 9), Right: valueOf(3, "politics")}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(200, func() {
		buf, _ = encodeEvent(buf[:0], stark.NewTuple(key, ev))
	}); n != 0 {
		t.Errorf("event line: %v allocations per row, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf, _ = encodePair(buf[:0], stark.NewTuple(key, pair))
	}); n != 0 {
		t.Errorf("join line: %v allocations per row, want 0", n)
	}
	dist, label := 2.5, 4
	for _, x := range []extras{{}, {distance: &dist}, {cluster: &label}, {right: &pair}} {
		if n := testing.AllocsPerRun(200, func() {
			buf, _ = appendFeature(buf[:0], key, ev, x)
		}); n != 0 {
			t.Errorf("appendFeature with %+v: %v allocations per row, want 0", x, n)
		}
	}
}

// benchRows are generated events as catalog rows.
func benchRows(b *testing.B) []stark.Tuple[eventValue] {
	events := workload.Events(workload.Config{N: 1024, Seed: 16})
	rows := make([]stark.Tuple[eventValue], len(events))
	for i, e := range events {
		row, err := catalogRow(e)
		if err != nil {
			b.Fatal(err)
		}
		rows[i] = row
	}
	return rows
}

var lineSink []byte

func BenchmarkAppendFeature(b *testing.B) {
	rows := benchRows(b)
	buf := make([]byte, 0, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = encodeEvent(buf[:0], rows[i%len(rows)])
	}
	lineSink = buf
}

// BenchmarkMarshalFeature is the map form, which the v1 path used for
// every row before the append encoder.
func BenchmarkMarshalFeature(b *testing.B) {
	rows := benchRows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line, _ := json.Marshal(feature(rows[i%len(rows)], nil, nil))
		lineSink = append(line, '\n')
	}
}
