package plan

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// parseCanonical parses a canonical serialization back into a
// structure-only plan tree (estimates and actuals unknown). It is the
// inverse of Canonical: parseCanonical(n.Canonical()).Canonical() ==
// n.Canonical() for every tree n.
func parseCanonical(s string) (*Node, error) {
	if s == "" {
		return nil, nil
	}
	var c canonicalNode
	if err := json.Unmarshal([]byte(s), &c); err != nil {
		return nil, fmt.Errorf("plan: parse canonical: %w", err)
	}
	return fromCanonical(c), nil
}

func fromCanonical(c canonicalNode) *Node {
	n := NewNode(c.Op, c.Detail)
	for _, ch := range c.Children {
		n.Add(fromCanonical(ch))
	}
	return n
}

// testTree builds a representative plan: a filter over an indexed,
// partitioned scan — the shape the DSL compiles for hot queries.
func testTree() *Node {
	scan := NewNode("Scan", "parallelize")
	scan.EstRows = 1000
	scan.ActRows = 1000
	scan.Prop("partitions=4")
	idx := NewNode("Index", "live(8)").Add(scan)
	f := NewNode("Filter", "intersects env=[10 10 60 60]").Add(idx)
	f.EstRows = 42.5
	f.EstCost = 1234
	f.Prop("pruned 3/4 partitions")
	return f
}

func TestCanonicalIgnoresExecutionState(t *testing.T) {
	a := testTree()
	b := testTree()
	// Execution-dependent state must not change the canonical form.
	b.ActRows = 7
	b.EstRows = 99
	b.Prop("actual: rows=7")
	b.Children[0].Children[0].ActRows = -1
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical differs across execution state:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	if Fingerprint(a.Canonical()) != Fingerprint(b.Canonical()) {
		t.Error("fingerprint differs across execution state")
	}
}

func TestCanonicalDistinguishesStructure(t *testing.T) {
	a := testTree().Canonical()
	other := testTree()
	other.Detail = "contains env=[10 10 60 60]"
	if a == other.Canonical() {
		t.Error("different predicates share a canonical form")
	}
	deeper := NewNode("Filter", "x").Add(testTree())
	if a == deeper.Canonical() {
		t.Error("different tree depths share a canonical form")
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	n := testTree()
	c := n.Canonical()
	parsed, err := parseCanonical(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed.Canonical(); got != c {
		t.Errorf("round trip changed canonical form:\n in: %s\nout: %s", c, got)
	}
	// Clone preserves the canonical form by definition.
	if got := n.Clone().Canonical(); got != c {
		t.Errorf("clone changed canonical form: %s", got)
	}
}

func TestParseCanonicalErrors(t *testing.T) {
	if n, err := parseCanonical(""); err != nil || n != nil {
		t.Errorf("empty canonical: n=%v err=%v", n, err)
	}
	if _, err := parseCanonical("{not json"); err == nil {
		t.Error("malformed canonical accepted")
	}
}

func TestFingerprintShape(t *testing.T) {
	fp := Fingerprint(testTree().Canonical())
	if len(fp) != 16 || strings.Trim(fp, "0123456789abcdef") != "" {
		t.Errorf("fingerprint %q is not 16 hex digits", fp)
	}
	if fp == Fingerprint("") {
		t.Error("fingerprint collides with the empty plan")
	}
}
