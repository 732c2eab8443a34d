package stark

// Test seams: switches the oracles need and no program calls. They
// compile into the test binary only, so the external test package sees
// them as methods of Dataset.

import "fmt"

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
		if err := st.sds.BuildAttrIndex(fields...); err != nil {
			return state[V]{}, err
		}
		return st, nil
	})
}
