package engine

import (
	"sync"
	"testing"
)

// TestCacheToggleConcurrentCompute exercises the cacheOn flag from
// concurrent readers (ComputePartition, as every task does) while Cache
// turns it on and an action fills the cache — the access pattern that
// used to race. Run with -race to verify the synchronisation.
func TestCacheToggleConcurrentCompute(t *testing.T) {
	ctx := NewContext(4)
	data := make([]int, 1024)
	for i := range data {
		data[i] = i
	}
	for i := 0; i < 50; i++ {
		d := Parallelize(ctx, data, 8)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := 0; p < d.NumPartitions(); p++ {
					out, err := d.ComputePartition(p)
					if err != nil {
						t.Error(err)
						return
					}
					if len(out) != 128 {
						t.Errorf("partition %d: %d elements, want 128", p, len(out))
						return
					}
				}
			}()
		}
		d.Cache()
		if _, err := d.Collect(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}
