package main

// Brute-force oracles over the benchmark's own copy of the generated
// events. A reply that disagrees makes the run incorrect.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

// feature is the part of one NDJSON feature line the oracles read.
type feature struct {
	Properties struct {
		ID int `json:"id"`
	} `json:"properties"`
}

// replyIDs decodes the record ids of a reply's feature lines.
func replyIDs(rows []byte) ([]int, error) {
	var ids []int
	for len(rows) > 0 {
		line, rest, _ := bytes.Cut(rows, []byte{'\n'})
		rows = rest
		var f feature
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, fmt.Errorf("decoding feature line: %w", err)
		}
		ids = append(ids, f.Properties.ID)
	}
	return ids, nil
}

// matches is the filter oracle: events in the closed window whose
// instant lies in the closed interval [0, end] and, with a category
// clause, whose category is cat.
func (t table) matches(win rect, end int64, cat int) []int {
	var ids []int
	for i, e := range t.events {
		if win.contains(e.x, e.y) && e.t >= 0 && e.t <= end && (cat < 0 || int(e.cat) == cat) {
			ids = append(ids, i)
		}
	}
	return ids
}

// joinPairs is the join oracle: pairs of a left event in the window
// and a right event at the same instant within dist of it. Right
// events are hashed into dist-sized buckets, so each left event
// compares against its 3×3 neighbourhood only.
func joinPairs(left, right table, win rect, end int64, dist float64) int64 {
	type cell struct{ x, y int }
	at := func(x, y float64) cell { return cell{int(math.Floor(x / dist)), int(math.Floor(y / dist))} }
	grid := make(map[cell][]int32)
	for i, e := range right.events {
		c := at(e.x, e.y)
		grid[c] = append(grid[c], int32(i))
	}
	var pairs int64
	for _, l := range left.events {
		if !win.contains(l.x, l.y) || l.t < 0 || l.t > end {
			continue
		}
		c := at(l.x, l.y)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range grid[cell{c.x + dx, c.y + dy}] {
					r := right.events[j]
					if r.t == l.t && math.Hypot(l.x-r.x, l.y-r.y) <= dist {
						pairs++
					}
				}
			}
		}
	}
	return pairs
}

// checkOracle compares one warm-up reply with brute force: the id set
// of a filter query, the pair count of a join.
func (r *runner) checkOracle(o *op, rep reply) error {
	if o.join {
		want := joinPairs(r.tabs[0], r.tabs[1], o.win, o.end, 1)
		if rep.count != want {
			return fmt.Errorf("join returned %d pairs, brute force finds %d", rep.count, want)
		}
		return nil
	}
	got, err := replyIDs(rep.rows)
	if err != nil {
		return err
	}
	slices.Sort(got)
	want := r.tabs[0].matches(o.win, o.end, o.cat)
	if !slices.Equal(got, want) {
		return fmt.Errorf("filter returned %d ids, brute force finds %d (or the sets differ)", len(got), len(want))
	}
	return nil
}
