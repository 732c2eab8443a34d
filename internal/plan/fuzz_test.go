package plan

import (
	"testing"
)

// buildTree derives a plan tree deterministically from fuzz bytes:
// each byte pair contributes one node (op/detail drawn from the
// corpus alphabets) and a structural decision (child vs sibling), so
// the fuzzer explores deep, wide and degenerate shapes.
func buildTree(data []byte) *Node {
	ops := []string{"Scan", "Filter", "Join", "KNN", "Cluster", "Partition", "Index", "Load"}
	details := []string{
		"", "parallelize", "intersects env=[0 0 1 1]",
		"withindistance env=[10 10 60 60] dist=5 time=[0,1000]",
		`quo"ted\ det]ail{`, "grid(8)",
	}
	root := NewNode("Root", "")
	cur := root
	stack := []*Node{}
	for i := 0; i+1 < len(data) && i < 64; i += 2 {
		n := NewNode(ops[int(data[i])%len(ops)], details[int(data[i+1])%len(details)])
		cur.Add(n)
		switch data[i] % 3 {
		case 0: // descend
			stack = append(stack, cur)
			cur = n
		case 1: // sibling: stay
		case 2: // ascend
			if len(stack) > 0 {
				cur = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			}
		}
	}
	return root
}

// FuzzCanonicalRoundTrip asserts the fingerprinting invariants on
// arbitrary tree shapes: Canonical is deterministic, survives Clone,
// round-trips through parseCanonical, and Fingerprint is a pure
// function of the canonical form.
func FuzzCanonicalRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 4, 0, 0, 2, 2, 5, 3, 7, 1})
	f.Add([]byte("deep nesting via zeros\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := buildTree(data)
		c := n.Canonical()
		if c2 := n.Canonical(); c2 != c {
			t.Fatalf("canonical not deterministic:\n%s\n%s", c, c2)
		}
		if cc := n.Clone().Canonical(); cc != c {
			t.Fatalf("clone changed canonical form:\n%s\n%s", c, cc)
		}
		parsed, err := parseCanonical(c)
		if err != nil {
			t.Fatalf("own canonical form does not parse: %v\n%s", err, c)
		}
		if c2 := parsed.Canonical(); c2 != c {
			t.Fatalf("round trip changed canonical form:\n in: %s\nout: %s", c, c2)
		}
		if Fingerprint(c) != Fingerprint(parsed.Canonical()) {
			t.Fatal("fingerprint differs across a round trip")
		}
	})
}

// FuzzParseCanonical throws arbitrary strings at the parser: it must
// never panic, and anything it accepts must re-serialise to a fixed
// point (parse ∘ canonical is idempotent).
func FuzzParseCanonical(f *testing.F) {
	f.Add(`{"op":"Filter","detail":"intersects","children":[{"op":"Scan"}]}`)
	f.Add(testTree().Canonical())
	f.Add(`{"op":`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, s string) {
		n, err := parseCanonical(s)
		if err != nil {
			return
		}
		c1 := n.Canonical()
		n2, err := parseCanonical(c1)
		if err != nil {
			t.Fatalf("canonical of accepted input does not re-parse: %v\n%s", err, c1)
		}
		if c2 := n2.Canonical(); c2 != c1 {
			t.Fatalf("canonical not a fixed point:\n%s\n%s", c1, c2)
		}
	})
}
