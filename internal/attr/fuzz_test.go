package attr

import (
	"testing"
)

// FuzzAttrCanonicalRoundTrip throws arbitrary strings at the
// predicate parser: it must never panic, anything it accepts must
// re-serialise to a fixed point (parse ∘ String is idempotent), and
// canonicalization must be stable — the plan fingerprint cache keys
// on these strings, so a drifting form would split or poison cache
// entries.
func FuzzAttrCanonicalRoundTrip(f *testing.F) {
	f.Add(`fare>f:40`)
	f.Add(`vendor=s:"ac\"me"`)
	f.Add(`time in [i:100,i:900]`)
	f.Add(`cat in {s:"a",s:"b",s:"a"}`)
	f.Add(`ok=b:true`)
	f.Add(`x<=f:-1.25e3`)
	f.Add(`_f>=i:-9223372036854775808`)
	f.Add(`bad in {}`)
	f.Add(`no field`)
	f.Fuzz(func(t *testing.T, s string) {
		p, err := parsePred(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			// The parser may accept forms Validate rejects (e.g. NaN
			// bounds); they never reach an index, so stop here.
			return
		}
		c := p.Canonicalize()
		text := c.String()
		if c2 := c.Canonicalize(); c2.String() != text {
			t.Fatalf("canonicalize not idempotent: %q -> %q", text, c2.String())
		}
		back, err := parsePred(text)
		if err != nil {
			t.Fatalf("own canonical form %q does not parse: %v", text, err)
		}
		if got := back.Canonicalize().String(); got != text {
			t.Fatalf("round trip changed canonical form:\n in: %q\nout: %q", text, got)
		}
		// Matching semantics survive the round trip: both predicates
		// agree on their own bound values.
		probe := c.Lo
		if c.Op == OpIn && len(c.Set) > 0 {
			probe = c.Set[0]
		}
		if c.Matches(probe) != back.Matches(probe) {
			t.Fatalf("round trip changed matching for %q on %s", text, probe)
		}
	})
}
