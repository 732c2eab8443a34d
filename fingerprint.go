package stark

// Plan fingerprinting for result caches. A fingerprint identifies
// "this logical query over this physical dataset": it hashes the
// canonical plan lineage, the pending (not yet compiled) predicates,
// the optimizer and index settings, and the generation number of the
// resolved engine dataset. The generation number makes invalidation
// structural — re-building a dataset (re-registering it in a serving
// catalog) yields a fresh generation, so every fingerprint minted
// against the old data can never match again. The query service in
// internal/server keys its LRU result cache on it.

import (
	"fmt"
	"strings"

	"stark/internal/plan"
)

// fingerprintOpaqueOps lists lineage operators that embed a caller
// closure the canonical plan form cannot identify: two chains through
// them may serialise identically yet compute different results, so
// fingerprinting refuses rather than risking a wrong cache hit.
var fingerprintOpaqueOps = map[string]bool{
	"FilterValues": true,
	"MapValues":    true,
	"ReKey":        true,
}

// Fingerprint resolves the chain and returns its plan fingerprint: 16
// hex digits identifying the logical query over the current
// generation of the underlying data. Two Dataset values share a
// fingerprint exactly when they were chained off the same resolved
// base with the same predicates and settings — so a repeated hot
// query fingerprints equal, while re-creating the base (a fresh
// Parallelize, a dataset re-registered in a catalog) changes every
// fingerprint by construction.
//
// Chains containing operators the planner cannot canonically describe
// — Where (custom predicates), FilterValues, MapValues, ReKey — are
// not fingerprintable and return an error: their closures are opaque,
// and a cache key that ignored them could alias two different
// queries.
func (d *Dataset[V]) Fingerprint() (string, error) {
	st, err := d.resolve()
	if err != nil {
		return "", err
	}
	// Position bookkeeping for refusal errors: the lineage tree's
	// deepest node is the first operator applied, pending predicates
	// follow it, so "step k of n" tells the caller which link of their
	// chain blocks caching.
	lineageLen := 0
	st.base.Walk(func(*plan.Node) { lineageLen++ })
	total := lineageLen + len(st.pending)
	var opaque string
	opaqueDepth := 0
	var scan func(n *plan.Node, depth int)
	scan = func(n *plan.Node, depth int) {
		if n == nil || opaque != "" {
			return
		}
		switch {
		case fingerprintOpaqueOps[n.Op]:
			opaque, opaqueDepth = n.Op, depth
		case n.Op == "Filter" && strings.HasPrefix(n.Detail, "custom"):
			// A custom Where predicate already folded into the lineage
			// (e.g. by Cache or a join) is just as opaque as a pending
			// one.
			opaque, opaqueDepth = "a custom Where predicate", depth
		}
		for _, c := range n.Children {
			scan(c, depth+1)
		}
	}
	scan(st.base, 0)
	if opaque != "" {
		return "", fmt.Errorf("stark: fingerprint: operator %d of %d in the chain is %s, whose closure cannot be fingerprinted",
			lineageLen-opaqueDepth, total, opaque)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d|opt=%t|mode=%s|", st.sds.Dataset().ID(), !st.noOpt, st.mode)
	b.WriteString(st.base.Canonical())
	for i, p := range st.pending {
		if p.attr != nil {
			// Typed attribute predicates hash in canonical form (fields
			// named, constants typed, IN sets sorted), so logically equal
			// attribute filters share a cache key.
			fmt.Fprintf(&b, "|attr %s", p.attr.String())
			continue
		}
		if p.info.Kind == plan.Custom || p.opaque {
			return "", fmt.Errorf("stark: fingerprint: operator %d of %d in the chain (%s) is an opaque predicate (custom Where or distance function), which cannot be fingerprinted",
				lineageLen+i+1, total, p.name)
		}
		// Hash the full query object (exact WKT + time interval), not
		// just the planner's envelope summary: two geometries sharing
		// an envelope are different queries and must not share a cache
		// key.
		fmt.Fprintf(&b, "|%s %s dist=%g", p.info.Kind, p.q, p.info.Expand)
	}
	return plan.Fingerprint(b.String()), nil
}
