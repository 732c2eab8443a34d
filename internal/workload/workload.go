// Package workload generates the synthetic datasets the benchmark
// harness and examples run on — the stand-in for the paper's
// real-world event data (Wikipedia events and the 1,000,000-point set
// of the Figure 4 micro-benchmark), which is not published.
//
// All generators are seeded and deterministic. The skewed generator
// reproduces the data property the paper's partitioning discussion
// hinges on: events concentrate on "land" (dense clusters) while most
// of the space ("sea") stays empty, which breaks equal-grid
// partitioning and motivates cost-based BSP.
package workload

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"stark/internal/attr"
	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
	"stark/internal/temporal"
	"stark/internal/wal"
)

// Event is the paper's running-example record: (id: Int, category:
// String, time: Long, wkt: String). Its JSON form is an inline event of
// a query service registration and a row of its checkpoints.
type Event struct {
	ID       int    `json:"id"`
	Category string `json:"category,omitempty"`
	Time     int64  `json:"time,omitempty"`
	WKT      string `json:"wkt"`
}

// Categories used by the event generator.
var Categories = []string{"politics", "sports", "culture", "disaster", "science"}

// EventSchema returns the attribute schema of Event: the typed field
// accessors the benchmarks register so id, category and time are
// filterable with typed predicates. The time is read from the key
// (ToSTObject puts it there), as the query service's rows keep it.
func EventSchema() *attr.Schema[Event] {
	return attr.NewSchema[Event]().
		Int64("id", func(_ stobject.STObject, e Event) int64 { return int64(e.ID) }).
		String("category", func(_ stobject.STObject, e Event) string { return e.Category }).
		Int64("time", func(key stobject.STObject, _ Event) int64 { iv, _ := key.Time(); return int64(iv.Start) })
}

// Distribution selects the spatial distribution of generated points.
type Distribution int

const (
	// Uniform spreads points uniformly over the space.
	Uniform Distribution = iota
	// Skewed concentrates points in a few Gaussian clusters
	// ("events on land"), leaving most of the space empty.
	Skewed
	// Diagonal concentrates points around the main diagonal,
	// a classic spatial-join stress distribution.
	Diagonal
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Skewed:
		return "skewed"
	case Diagonal:
		return "diagonal"
	default:
		return fmt.Sprintf("distribution(%d)", int(d))
	}
}

// Config parameterises the generators.
type Config struct {
	// N is the number of points/events to generate.
	N int
	// Seed makes runs reproducible.
	Seed int64
	// Width and Height bound the data space ([0,Width)×[0,Height));
	// zero values default to 1000×1000.
	Width, Height float64
	// Dist selects the spatial distribution.
	Dist Distribution
	// Clusters is the number of Gaussian clusters for Skewed; zero
	// defaults to 12.
	Clusters int
	// Spread is the standard deviation of the Skewed clusters in
	// space units; zero defaults to Width/60. Small values produce
	// the heavy "events on land" concentration that breaks equal-grid
	// partitioning.
	Spread float64
	// TimeRange bounds the generated instants ([0, TimeRange)); zero
	// defaults to 1_000_000.
	TimeRange int64
}

func (c Config) withDefaults() Config {
	if c.Width <= 0 {
		c.Width = 1000
	}
	if c.Height <= 0 {
		c.Height = 1000
	}
	if c.Clusters <= 0 {
		c.Clusters = 12
	}
	if c.TimeRange <= 0 {
		c.TimeRange = 1_000_000
	}
	return c
}

// Points generates n spatial points under the configured
// distribution.
func Points(cfg Config) []geom.Point {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts := make([]geom.Point, cfg.N)
	switch cfg.Dist {
	case Skewed:
		centers := make([]geom.Point, cfg.Clusters)
		for i := range centers {
			centers[i] = geom.Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
		}
		sdX, sdY := cfg.Width/60, cfg.Height/60
		if cfg.Spread > 0 {
			sdX, sdY = cfg.Spread, cfg.Spread
		}
		for i := range pts {
			c := centers[rng.Intn(len(centers))]
			pts[i] = geom.Point{
				X: clamp(c.X+rng.NormFloat64()*sdX, 0, cfg.Width),
				Y: clamp(c.Y+rng.NormFloat64()*sdY, 0, cfg.Height),
			}
		}
	case Diagonal:
		sd := cfg.Height / 40
		for i := range pts {
			t := rng.Float64()
			pts[i] = geom.Point{
				X: clamp(t*cfg.Width+rng.NormFloat64()*sd, 0, cfg.Width),
				Y: clamp(t*cfg.Height+rng.NormFloat64()*sd, 0, cfg.Height),
			}
		}
	default:
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
		}
	}
	return pts
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// STPoints generates timestamped STObjects under the configuration.
func STPoints(cfg Config) []stobject.STObject {
	cfg = cfg.withDefaults()
	pts := Points(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	out := make([]stobject.STObject, len(pts))
	for i, p := range pts {
		out[i] = stobject.NewWithTime(p, temporal.Instant(rng.Int63n(cfg.TimeRange)))
	}
	return out
}

// Tuples generates (STObject, int) pairs ready for core.Wrap; the
// value is the record index.
func Tuples(cfg Config) []engine.Pair[stobject.STObject, int] {
	objs := STPoints(cfg)
	out := make([]engine.Pair[stobject.STObject, int], len(objs))
	for i, o := range objs {
		out[i] = engine.NewPair(o, i)
	}
	return out
}

// SpatialTuples is Tuples without the temporal component — the
// Figure-4 self-join input.
func SpatialTuples(cfg Config) []engine.Pair[stobject.STObject, int] {
	pts := Points(cfg)
	out := make([]engine.Pair[stobject.STObject, int], len(pts))
	for i, p := range pts {
		out[i] = engine.NewPair(stobject.New(p), i)
	}
	return out
}

// Events generates the running-example event records.
func Events(cfg Config) []Event {
	cfg = cfg.withDefaults()
	pts := Points(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	out := make([]Event, len(pts))
	for i, p := range pts {
		out[i] = Event{
			ID:       i,
			Category: Categories[rng.Intn(len(Categories))],
			Time:     rng.Int63n(cfg.TimeRange),
			WKT:      geom.Point{X: p.X, Y: p.Y}.WKT(),
		}
	}
	return out
}

// Regions generates m axis-aligned rectangular regions (as WKT
// polygons) for join workloads; side lengths are a fraction of the
// space.
func Regions(cfg Config, m int) []stobject.STObject {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	out := make([]stobject.STObject, m)
	for i := range out {
		w := (0.005 + rng.Float64()*0.02) * cfg.Width
		h := (0.005 + rng.Float64()*0.02) * cfg.Height
		x := rng.Float64() * (cfg.Width - w)
		y := rng.Float64() * (cfg.Height - h)
		out[i] = stobject.New(geom.NewEnvelope(x, y, x+w, y+h).ToPolygon())
	}
	return out
}

// ---- CSV round trip through a file ----

// eventsCSVHeader is the column list of WriteEventsCSV.
const eventsCSVHeader = "id,category,time,wkt"

// WriteEventsCSV stores events as a CSV file at path, creating its
// directory and atomically replacing a previous file — the paper's
// "raw data on HDFS". The WKT field is written last and may contain
// commas, so it is not quoted but parsed positionally.
func WriteEventsCSV(path string, events []Event) error {
	var buf bytes.Buffer
	buf.WriteString(eventsCSVHeader + "\n")
	for _, e := range events {
		fmt.Fprintf(&buf, "%d,%s,%d,%s\n", e.ID, e.Category, e.Time, e.WKT)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return wal.WriteFileAtomic(path, buf.Bytes())
}

// ReadEventsCSV loads events written by WriteEventsCSV.
func ReadEventsCSV(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		if line == 1 {
			if sc.Text() != eventsCSVHeader {
				return nil, fmt.Errorf("workload: %s has unexpected header %q", path, sc.Text())
			}
			continue
		}
		e, err := ParseEventLine(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("workload: %s line %d: %w", path, line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	if line == 0 {
		return nil, fmt.Errorf("workload: %s is empty", path)
	}
	return events, nil
}

// ParseEventLine parses one "id,category,time,wkt" line; the wkt
// field is everything after the third comma.
func ParseEventLine(line string) (Event, error) {
	parts := strings.SplitN(line, ",", 4)
	if len(parts) != 4 {
		return Event{}, fmt.Errorf("expected 4 fields, got %d", len(parts))
	}
	id, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return Event{}, fmt.Errorf("bad id %q", parts[0])
	}
	ts, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad time %q", parts[2])
	}
	return Event{ID: id, Category: strings.TrimSpace(parts[1]), Time: ts, WKT: strings.TrimSpace(parts[3])}, nil
}

// ToSTObject converts an event to its spatio-temporal key, parsing
// the WKT — the pre-processing map step of the paper's example.
func (e Event) ToSTObject() (stobject.STObject, error) {
	return stobject.FromWKTWithTime(e.WKT, temporal.Instant(e.Time))
}

// EventTuples converts events to (STObject, Event) pairs, dropping
// records with invalid WKT (returned count reports drops).
func EventTuples(events []Event) ([]engine.Pair[stobject.STObject, Event], int) {
	out := make([]engine.Pair[stobject.STObject, Event], 0, len(events))
	dropped := 0
	for _, e := range events {
		o, err := e.ToSTObject()
		if err != nil {
			dropped++
			continue
		}
		out = append(out, engine.NewPair(o, e))
	}
	return out, dropped
}
