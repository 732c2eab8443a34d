package stark

// This file is the public surface of typed attribute filters: a
// registered AttrSchema names payload fields and their typed
// extractors, and FilterEq/FilterRange/FilterIn defer typed
// comparisons onto the chain exactly like the spatial filters — they
// compile through the cost-based planner (which chooses between
// inline evaluation, an attribute-first postings probe, and a
// postings-bitset intersection with the columnar kernels), render as
// AttrIndex/AttrScan nodes in EXPLAIN, and fingerprint canonically so
// attribute queries result-cache.

import (
	"fmt"

	"stark/internal/attr"
)

type (
	// AttrSchema maps field names to typed accessors (Int64/Float64/
	// String/Bool); WithSchema registers one before attribute filters.
	AttrSchema[V any] = attr.Schema[V]
)

// NewAttrSchema returns an empty attribute schema for payload type V.
// Its accessors receive a row's key and value.
func NewAttrSchema[V any]() *AttrSchema[V] { return attr.NewSchema[V]() }

// WithSchema registers the attribute schema the chain's attribute
// filters compile against. It must precede FilterEq/FilterRange/
// FilterIn on the chain; predicates are type-checked (and numeric
// constants coerced) against it immediately.
func (d *Dataset[V]) WithSchema(schema *AttrSchema[V]) *Dataset[V] {
	return d.chain("withSchema", func(st state[V]) (state[V], error) {
		if schema == nil {
			return state[V]{}, fmt.Errorf("nil schema")
		}
		st.schema = schema
		return st, nil
	})
}

// FilterEq keeps the records whose field equals value.
func (d *Dataset[V]) FilterEq(field string, value any) *Dataset[V] {
	return d.filterAttr("filterEq", func() (attr.Pred, error) {
		v, err := attr.FromAny(value)
		if err != nil {
			return attr.Pred{}, err
		}
		return attr.Pred{Field: field, Op: attr.OpEq, Lo: v}, nil
	})
}

// FilterRange keeps the records whose field lies in [lo, hi], both
// bounds inclusive; a nil bound leaves that end open (nil lo = at most
// hi, nil hi = at least lo).
func (d *Dataset[V]) FilterRange(field string, lo, hi any) *Dataset[V] {
	return d.filterAttr("filterRange", func() (attr.Pred, error) {
		switch {
		case lo == nil && hi == nil:
			return attr.Pred{}, fmt.Errorf("both bounds nil")
		case hi == nil:
			v, err := attr.FromAny(lo)
			if err != nil {
				return attr.Pred{}, err
			}
			return attr.Pred{Field: field, Op: attr.OpGe, Lo: v}, nil
		case lo == nil:
			v, err := attr.FromAny(hi)
			if err != nil {
				return attr.Pred{}, err
			}
			return attr.Pred{Field: field, Op: attr.OpLe, Lo: v}, nil
		default:
			l, err := attr.FromAny(lo)
			if err != nil {
				return attr.Pred{}, err
			}
			h, err := attr.FromAny(hi)
			if err != nil {
				return attr.Pred{}, err
			}
			return attr.Pred{Field: field, Op: attr.OpBetween, Lo: l, Hi: h}, nil
		}
	})
}

// FilterIn keeps the records whose field equals any of the values.
// The set is canonicalised (sorted, deduplicated), so logically equal
// IN filters fingerprint identically.
func (d *Dataset[V]) FilterIn(field string, values ...any) *Dataset[V] {
	return d.filterAttr("filterIn", func() (attr.Pred, error) {
		if len(values) == 0 {
			return attr.Pred{}, fmt.Errorf("empty value set")
		}
		set := make([]attr.Value, len(values))
		for i, raw := range values {
			v, err := attr.FromAny(raw)
			if err != nil {
				return attr.Pred{}, err
			}
			set[i] = v
		}
		return attr.Pred{Field: field, Op: attr.OpIn, Set: set}, nil
	})
}

// FilterOp keeps the records whose field satisfies the named
// comparison against value — the wire-form entry point ("eq", "lt",
// "le", "gt", "ge" and their symbol spellings) the query service and
// Piglet compile through. Use FilterRange for between and FilterIn
// for sets.
func (d *Dataset[V]) FilterOp(field, op string, value any) *Dataset[V] {
	return d.filterAttr("filterOp", func() (attr.Pred, error) {
		o, err := attr.ParseOp(op)
		if err != nil {
			return attr.Pred{}, err
		}
		if o == attr.OpBetween || o == attr.OpIn {
			return attr.Pred{}, fmt.Errorf("op %q needs FilterRange/FilterIn", op)
		}
		v, err := attr.FromAny(value)
		if err != nil {
			return attr.Pred{}, err
		}
		return attr.Pred{Field: field, Op: o, Lo: v}, nil
	})
}

// filterAttr defers one typed attribute predicate onto the chain,
// validating and type-checking it against the registered schema
// immediately (so errors surface at the call site, not at the
// action).
func (d *Dataset[V]) filterAttr(name string, build func() (attr.Pred, error)) *Dataset[V] {
	return d.chain(name, func(st state[V]) (state[V], error) {
		p, err := build()
		if err != nil {
			return state[V]{}, err
		}
		p = p.Canonicalize()
		if err := p.Validate(); err != nil {
			return state[V]{}, err
		}
		if st.schema == nil {
			return state[V]{}, fmt.Errorf("no attribute schema registered (WithSchema must precede attribute filters)")
		}
		p, err = st.schema.Check(p)
		if err != nil {
			return state[V]{}, err
		}
		ap := p
		st.pending = append(st.pending[:len(st.pending):len(st.pending)], pendingPred{name: name, attr: &ap})
		return st, nil
	})
}
