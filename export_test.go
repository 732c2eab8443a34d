package stark

// Test seams: switches and references the oracles need and no program
// calls. They compile into the test binary only, so the external test
// package sees them as methods of Dataset.

import (
	"context"
	"fmt"

	"stark/internal/attr"
	"stark/internal/engine"
)

// Optimize(false) turns the cost-based planner off for this chain:
// filters run in caller order as fused scans, partitions are pruned
// from partitioner extents only, and no statistics pass runs. The
// planned==naive oracles compare against it.
func (d *Dataset[V]) Optimize(enabled bool) *Dataset[V] {
	return d.chain("optimize", func(st state[V]) (state[V], error) {
		st.noOpt = !enabled
		return st, nil
	})
}

// Explain is ExplainNode rendered as text.
func (d *Dataset[V]) Explain() (string, error) {
	n, err := d.ExplainNode()
	if err != nil {
		return "", err
	}
	return n.Render(), nil
}

// AttrIndex builds the per-partition attribute postings for the named
// fields (all schema fields when none are given) up front, so the
// planner prices the postings probe without its build cost; the access
// path oracles use it to force the probe.
func (d *Dataset[V]) AttrIndex(fields ...string) *Dataset[V] {
	return d.chain("attrIndex", func(st state[V]) (state[V], error) {
		if st.schema == nil {
			return state[V]{}, fmt.Errorf("no attribute schema registered (WithSchema must precede AttrIndex)")
		}
		st, err := st.flush()
		if err != nil {
			return state[V]{}, err
		}
		st.sds.SetSchema(st.schema)
		if len(fields) == 0 {
			fields = st.schema.Names()
		}
		for _, f := range fields {
			// AttrFilter builds the field's postings when it is called.
			if _, err := st.sds.AttrFilter(attr.Pred{Field: f}, nil); err != nil {
				return state[V]{}, err
			}
		}
		return st, nil
	})
}

// StreamParallelContext, the row-at-a-time reference for
// StreamEncodedContext, drives every result record through fn
// sequentially, in partition order, without materialising the result;
// fn returning false stops the stream. The partitions are cut into
// morsels that run as one ordered job on all executors, buffering the
// rows of at most 2 × parallelism morsels. Cancellation is cooperative:
// once ctx is done no further morsel is started and the stream returns
// ctx.Err().
func (d *Dataset[V]) StreamParallelContext(ctx context.Context, fn func(Tuple[V]) bool) error {
	if fn == nil {
		return fmt.Errorf("stark: streamParallel: nil consumer")
	}
	return d.runPhase("stream", func(ds *engine.Dataset[Tuple[V]], visit []int) (rows int64, err error) {
		err = ds.StreamPartitionsParallelContext(ctx, visit, func(kv Tuple[V]) bool {
			rows++
			return fn(kv)
		})
		return rows, err
	})
}
