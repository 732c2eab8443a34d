package plan

// Plan fingerprinting: a canonical, stable serialization of the
// *structure* of a plan tree (operators, their arguments, the input
// shape) that is independent of anything execution-dependent — cost
// estimates, actual cardinalities, decision annotations. Two chains
// that would execute the same logical query over the same input
// serialise identically, so a hash of the canonical form can key a
// result cache: equal fingerprint ⇒ equal result (for a fixed dataset
// generation, which callers mix into the hashed string).
//
// The canonical form is minified JSON with a fixed field order
// (op, detail, children), so it doubles as a wire format: the tests
// round-trip it with parseCanonical.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// canonicalNode is the reduced, execution-independent view of a Node
// used for fingerprinting. Field order fixes the serialization.
type canonicalNode struct {
	Op       string          `json:"op"`
	Detail   string          `json:"detail,omitempty"`
	Children []canonicalNode `json:"children,omitempty"`
}

func toCanonical(n *Node) canonicalNode {
	c := canonicalNode{Op: n.Op, Detail: n.Detail}
	for _, ch := range n.Children {
		if ch != nil {
			c.Children = append(c.Children, toCanonical(ch))
		}
	}
	return c
}

// Canonical returns the canonical serialization of the tree's
// structure: operators, details and child order only — estimates,
// actuals and props are excluded, so a plan fingerprints the same
// before and after execution. A nil tree serialises to "".
func (n *Node) Canonical() string {
	if n == nil {
		return ""
	}
	b, err := json.Marshal(toCanonical(n))
	if err != nil {
		// Marshalling a struct of strings and slices cannot fail.
		panic(fmt.Sprintf("plan: canonical marshal: %v", err))
	}
	return string(b)
}

// Fingerprint hashes a canonical plan string (plus any extra
// components the caller mixed in, such as a dataset generation
// counter) into a compact cache key: 16 hex digits of FNV-1a.
func Fingerprint(canonical string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(canonical))
	return fmt.Sprintf("%016x", h.Sum64())
}
