package live

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"stark/internal/geom"
	"stark/internal/stobject"
)

func pt(x, y float64) stobject.STObject { return stobject.New(geom.NewPoint(x, y)) }

// collectIDs streams a search into an ID multiset.
func collectIDs(t *tree[int], q geom.Envelope, gen uint64, all bool) map[int64]int {
	out := make(map[int64]int)
	t.search(q, gen, all, func(e entry[int]) bool {
		out[e.ID]++
		return true
	})
	return out
}

func TestTreeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := newTree[int](5, nil) // tiny order to force deep split cascades
	type rec struct {
		id   int64
		x, y float64
	}
	var recs []rec
	for i := 0; i < 2000; i++ {
		r := rec{id: int64(i), x: rng.Float64() * 100, y: rng.Float64() * 100}
		recs = append(recs, r)
		tr.insert(entry[int]{ID: r.id, Key: pt(r.x, r.y), Value: i, addGen: 1})
	}
	if tr.live != 2000 {
		t.Fatalf("live = %d, want 2000", tr.live)
	}
	for trial := 0; trial < 50; trial++ {
		x1, y1 := rng.Float64()*100, rng.Float64()*100
		q := geom.NewEnvelope(x1, y1, x1+rng.Float64()*30, y1+rng.Float64()*30)
		want := make(map[int64]int)
		for _, r := range recs {
			if q.ContainsPoint(r.x, r.y) {
				want[r.id] = 1
			}
		}
		got := collectIDs(tr, q, 1, false)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for id, n := range got {
			if n != 1 {
				t.Fatalf("trial %d: id %d returned %d times", trial, id, n)
			}
			if want[id] != 1 {
				t.Fatalf("trial %d: unexpected id %d", trial, id)
			}
		}
	}
}

func TestTreeTombstoneVisibility(t *testing.T) {
	tr := newTree[int](4, nil)
	for i := 0; i < 100; i++ {
		tr.insert(entry[int]{ID: int64(i), Key: pt(float64(i), 0), Value: i, addGen: 1})
	}
	// Tombstone the even IDs at generation 2.
	for i := 0; i < 100; i += 2 {
		if _, ok := tr.delete(int64(i), 2); !ok {
			t.Fatalf("delete(%d) missed", i)
		}
	}
	if _, ok := tr.delete(0, 3); ok {
		t.Fatal("double delete reported success")
	}
	at1 := collectIDs(tr, geom.Envelope{}, 1, true)
	if len(at1) != 100 {
		t.Fatalf("gen 1 sees %d entries, want 100 (delete at gen 2 must be invisible)", len(at1))
	}
	at2 := collectIDs(tr, geom.Envelope{}, 2, true)
	if len(at2) != 50 {
		t.Fatalf("gen 2 sees %d entries, want 50", len(at2))
	}
	for id := range at2 {
		if id%2 == 0 {
			t.Fatalf("gen 2 sees deleted id %d", id)
		}
	}
	if tr.live != 50 || tr.dead != 50 {
		t.Fatalf("live/dead = %d/%d, want 50/50", tr.live, tr.dead)
	}
}

func TestTreeRebuildDropsTombstones(t *testing.T) {
	tr := newTree[int](4, nil)
	for i := 0; i < 200; i++ {
		tr.insert(entry[int]{ID: int64(i), Key: pt(float64(i%20), float64(i/20)), Value: i, addGen: uint64(1 + i/50)})
	}
	for i := 0; i < 200; i += 3 {
		tr.delete(int64(i), 9)
	}
	nt := newTree(tr.order, tr.liveEntries())
	for _, x := range []*tree[int]{tr, nt} {
		if err := x.check(); err != nil {
			t.Fatal(err)
		}
	}
	if nt.live != tr.live || nt.dead != 0 {
		t.Fatalf("rebuilt live/dead = %d/%d, want %d/0", nt.live, nt.dead, tr.live)
	}
	want := collectIDs(tr, geom.Envelope{}, 9, true)
	got := collectIDs(nt, geom.Envelope{}, 9, true)
	if len(got) != len(want) {
		t.Fatalf("rebuilt sees %d entries, want %d", len(got), len(want))
	}
	for id := range want {
		if got[id] != 1 {
			t.Fatalf("rebuilt lost id %d", id)
		}
	}
	// addGen must survive the rebuild: a historical generation reads
	// the same subset from both trees.
	oldAt2 := collectIDs(tr, geom.Envelope{}, 2, true)
	newAt2 := collectIDs(nt, geom.Envelope{}, 2, true)
	for id := range newAt2 {
		if id%3 == 0 {
			// Tombstoned at gen 9 <= published, dropped by rebuild:
			// the rebuilt tree serves generations >= 9 only, so the
			// old subset check below skips them.
			continue
		}
		if oldAt2[id] != 1 {
			t.Fatalf("rebuilt shows id %d at gen 2 that old tree does not", id)
		}
	}
}

// TestTreeReadersNeverMissOrDouble is the R-link protocol gate: a
// writer inserts entries one generation at a time while readers pin a
// published generation mid-flight and full-scan. A reader must see
// EXACTLY the entries of its pinned generation — no entry missed
// because a split moved it, none seen twice because a chase
// re-visited it. The writer starts from an empty tree and from one the
// loader packed, whose leaves it then splits.
func TestTreeReadersNeverMissOrDouble(t *testing.T) {
	const total = 4000
	for _, packed := range []int{0, 3000} {
		rng := rand.New(rand.NewSource(99))
		// Packed entries are visible from generation 0 and take the ids
		// after the inserted ones.
		es := make([]entry[int], packed)
		for i := range es {
			es[i] = entry[int]{ID: int64(total + i), Key: pt(rng.Float64()*100, rng.Float64()*100)}
		}
		tr := newTree(5, es)
		var published atomic.Uint64

		var wg sync.WaitGroup
		stop := make(chan struct{})
		errs := make(chan string, 8)
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					gen := published.Load()
					got := make(map[int64]int)
					if rng.Intn(2) == 0 {
						tr.search(geom.Envelope{}, gen, true, func(e entry[int]) bool {
							got[e.ID]++
							return true
						})
						if uint64(len(got)) != uint64(packed)+gen {
							errs <- "full scan saw the wrong number of entries"
							return
						}
					} else {
						q := geom.NewEnvelope(10, 10, 60, 60)
						tr.search(q, gen, false, func(e entry[int]) bool {
							got[e.ID]++
							return true
						})
					}
					for id, n := range got {
						if n != 1 {
							errs <- "duplicate visit"
							return
						}
						if id < total && uint64(id) >= gen {
							errs <- "saw entry from an unpublished generation"
							return
						}
					}
				}
			}(int64(r))
		}

		for i := 0; i < total; i++ {
			// Entry i becomes visible at generation i+1; IDs equal their
			// insertion index so readers can verify exact prefixes.
			tr.insert(entry[int]{
				ID:     int64(i),
				Key:    pt(rng.Float64()*100, rng.Float64()*100),
				Value:  i,
				addGen: uint64(i + 1),
			})
			published.Store(uint64(i + 1))
		}
		close(stop)
		wg.Wait()
		select {
		case msg := <-errs:
			t.Fatalf("%d packed: %s", packed, msg)
		default:
		}

		if err := tr.check(); err != nil {
			t.Fatalf("%d packed: %v", packed, err)
		}
		got := collectIDs(tr, geom.Envelope{}, total, true)
		if len(got) != total+packed {
			t.Fatalf("%d packed: final scan sees %d entries, want %d", packed, len(got), total+packed)
		}
	}
}

// TestTreeCheckCatchesDamage makes sure the tree checker is not
// vacuous: a packed tree, split by inserts and carrying tombstones,
// passes, and each kind of damage it is there for is reported.
func TestTreeCheckCatchesDamage(t *testing.T) {
	build := func() *tree[int] {
		es := make([]entry[int], 300)
		for i := range es {
			es[i] = entry[int]{ID: int64(i), Key: pt(float64(i%20), float64(i/20)), addGen: 1}
		}
		tr := newTree(4, es)
		for i := 300; i < 400; i++ {
			tr.insert(entry[int]{ID: int64(i), Key: pt(float64(i%20)+0.5, float64(i/20)), addGen: 2})
		}
		for i := 0; i < 400; i += 7 {
			tr.delete(int64(i), 3)
		}
		return tr
	}
	if err := build().check(); err != nil {
		t.Fatal(err)
	}
	// A leaf holding entries at distinct points, and one other leaf.
	leaf := func(tr *tree[int]) *node[int] {
		for n := tr.leftLeaf; ; n = n.right {
			if n.env.Area() > 0 {
				return n
			}
		}
	}
	for name, damage := range map[string]func(tr *tree[int]){
		"leaf MBR": func(tr *tree[int]) {
			n := leaf(tr)
			n.env = geom.NewEnvelope(n.env.MinX, n.env.MinY, n.env.MinX, n.env.MinY)
		},
		"ref MBR": func(tr *tree[int]) {
			r := &tr.root.Load().n.refs[0]
			r.env = geom.NewEnvelope(r.env.MinX, r.env.MinY, r.env.MinX, r.env.MinY)
		},
		"ref nsn":     func(tr *tree[int]) { tr.root.Load().n.refs[1].nsn++ },
		"chain skips": func(tr *tree[int]) { tr.leftLeaf.right = tr.leftLeaf.right.right },
		"chain loops": func(tr *tree[int]) { leaf(tr).right = tr.leftLeaf },
		"stale owner": func(tr *tree[int]) { tr.owners[5] = tr.leftLeaf.right },
		"counter":     func(tr *tree[int]) { tr.dead++ },
		"generation":  func(tr *tree[int]) { e := &leaf(tr).entries[0]; e.delGen = e.addGen },
	} {
		tr := build()
		damage(tr)
		if err := tr.check(); err == nil {
			t.Errorf("%s: damage not reported", name)
		}
	}
}
