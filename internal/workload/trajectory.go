package workload

import (
	"math"
	"math/rand"

	"stark/internal/engine"
	"stark/internal/geom"
	"stark/internal/stobject"
)

// This file generates moving-object data: the paper's introduction
// motivates spatio-temporal processing with "(mobile) location aware
// devices that periodically report their position". Each object
// performs a correlated random walk and emits one timestamped point
// per tick.

// TrajectoryPoint is one position report.
type TrajectoryPoint struct {
	// ObjectID identifies the moving object.
	ObjectID int
	// Seq is the report number within the object's trajectory.
	Seq int
}

// TrajectoryConfig parameterises Trajectories.
type TrajectoryConfig struct {
	// Objects is the number of moving objects.
	Objects int
	// Ticks is the number of reports per object.
	Ticks int
	// Seed makes runs reproducible.
	Seed int64
	// Width, Height bound the space; zero defaults to 1000×1000.
	Width, Height float64
	// Speed is the mean step length per tick; zero defaults to
	// Width/200.
	Speed float64
	// TickInterval is the time between reports; zero defaults to 60.
	TickInterval int64
}

func (c TrajectoryConfig) withDefaults() TrajectoryConfig {
	if c.Width <= 0 {
		c.Width = 1000
	}
	if c.Height <= 0 {
		c.Height = 1000
	}
	if c.Speed <= 0 {
		c.Speed = c.Width / 200
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 60
	}
	return c
}

// Trajectories generates Objects×Ticks position reports as
// (STObject, TrajectoryPoint) pairs, ordered by object then sequence.
// Every report carries the instant of its tick, so spatio-temporal
// predicates apply directly.
func Trajectories(cfg TrajectoryConfig) []engine.Pair[stobject.STObject, TrajectoryPoint] {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]engine.Pair[stobject.STObject, TrajectoryPoint], 0, cfg.Objects*cfg.Ticks)
	for obj := 0; obj < cfg.Objects; obj++ {
		x := rng.Float64() * cfg.Width
		y := rng.Float64() * cfg.Height
		heading := rng.Float64() * 2 * math.Pi
		for tick := 0; tick < cfg.Ticks; tick++ {
			key := stobject.NewWithTime(
				geom.NewPoint(x, y),
				stobject.Instant(int64(tick)*cfg.TickInterval))
			out = append(out, engine.NewPair(key, TrajectoryPoint{ObjectID: obj, Seq: tick}))

			// Correlated random walk: small heading changes, bounce at
			// the borders.
			heading += rng.NormFloat64() * 0.4
			step := cfg.Speed * (0.5 + rng.Float64())
			x += step * math.Cos(heading)
			y += step * math.Sin(heading)
			if x < 0 {
				x, heading = -x, math.Pi-heading
			}
			if x > cfg.Width {
				x, heading = 2*cfg.Width-x, math.Pi-heading
			}
			if y < 0 {
				y, heading = -y, -heading
			}
			if y > cfg.Height {
				y, heading = 2*cfg.Height-y, -heading
			}
		}
	}
	return out
}

// TrajectoryLines converts the reports of each object into a
// LineString (useful for simplification and rendering). Objects with
// fewer than two reports are skipped.
func TrajectoryLines(reports []engine.Pair[stobject.STObject, TrajectoryPoint]) map[int]geom.LineString {
	byObj := make(map[int][]geom.Point)
	for _, kv := range reports {
		byObj[kv.Value.ObjectID] = append(byObj[kv.Value.ObjectID], kv.Key.Centroid())
	}
	out := make(map[int]geom.LineString, len(byObj))
	for obj, pts := range byObj {
		if ls, err := geom.NewLineString(pts); err == nil {
			out[obj] = ls
		}
	}
	return out
}
