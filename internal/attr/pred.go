package attr

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Op enumerates the typed comparison operators.
type Op uint8

const (
	OpEq Op = iota + 1
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween // inclusive on both ends
	OpIn
)

func (op Op) String() string {
	switch op {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "between"
	case OpIn:
		return "in"
	}
	return "?"
}

// ParseOp maps the wire spellings used by the HTTP API and Piglet
// onto Op.
func ParseOp(s string) (Op, error) {
	switch strings.ToLower(s) {
	case "eq", "=", "==":
		return OpEq, nil
	case "lt", "<":
		return OpLt, nil
	case "le", "lte", "<=":
		return OpLe, nil
	case "gt", ">":
		return OpGt, nil
	case "ge", "gte", ">=":
		return OpGe, nil
	case "between":
		return OpBetween, nil
	case "in":
		return OpIn, nil
	}
	return 0, fmt.Errorf("attr: unknown operator %q", s)
}

// Pred is one typed attribute predicate over a named field. Lo holds
// the comparison value for Eq/Lt/Le/Gt/Ge and the lower bound for
// Between; Hi the upper Between bound; Set the OpIn membership list.
// Matches and the postings both compare under Value.Compare, so a NaN
// field value sorts below every bound: it satisfies Lt and Le and no
// other operator.
type Pred struct {
	Field string
	Op    Op
	Lo    Value
	Hi    Value
	Set   []Value
}

// Kind returns the value kind the predicate compares against.
func (p Pred) Kind() Kind {
	if p.Op == OpIn {
		if len(p.Set) == 0 {
			return KindInvalid
		}
		return p.Set[0].Kind
	}
	return p.Lo.Kind
}

// Matches reports whether value v satisfies the predicate. A kind
// mismatch never matches.
func (p Pred) Matches(v Value) bool {
	switch p.Op {
	case OpEq:
		return v.Kind == p.Lo.Kind && v.Compare(p.Lo) == 0
	case OpLt:
		return v.Kind == p.Lo.Kind && v.Compare(p.Lo) < 0
	case OpLe:
		return v.Kind == p.Lo.Kind && v.Compare(p.Lo) <= 0
	case OpGt:
		return v.Kind == p.Lo.Kind && v.Compare(p.Lo) > 0
	case OpGe:
		return v.Kind == p.Lo.Kind && v.Compare(p.Lo) >= 0
	case OpBetween:
		return v.Kind == p.Lo.Kind && v.Kind == p.Hi.Kind &&
			v.Compare(p.Lo) >= 0 && v.Compare(p.Hi) <= 0
	case OpIn:
		for _, s := range p.Set {
			if v.Kind == s.Kind && v.Compare(s) == 0 {
				return true
			}
		}
	}
	return false
}

// Canonicalize returns the predicate with its OpIn set sorted and
// deduplicated, so equivalent membership lists produce identical
// canonical strings (and therefore identical plan fingerprints).
func (p Pred) Canonicalize() Pred {
	if p.Op != OpIn || len(p.Set) < 2 {
		return p
	}
	set := append([]Value(nil), p.Set...)
	sort.Slice(set, func(i, j int) bool { return set[i].Less(set[j]) })
	out := set[:1]
	for _, v := range set[1:] {
		if v.Compare(out[len(out)-1]) != 0 {
			out = append(out, v)
		}
	}
	p.Set = out
	return p
}

// String renders the canonical text form, e.g. `fare>f:40`,
// `vendor=s:"acme"`, `fare in [f:10,f:20]`, `cat in {i:1,i:3}`. The
// form round-trips through ParsePred byte-for-byte.
func (p Pred) String() string {
	switch p.Op {
	case OpEq, OpLt, OpLe, OpGt, OpGe:
		return p.Field + p.Op.String() + p.Lo.String()
	case OpBetween:
		return p.Field + " in [" + p.Lo.String() + "," + p.Hi.String() + "]"
	case OpIn:
		var b strings.Builder
		b.WriteString(p.Field)
		b.WriteString(" in {")
		for i, v := range p.Set {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('}')
		return b.String()
	}
	return p.Field + "?invalid"
}

// Validate checks structural soundness: a legal field name, a known
// operator, kind-consistent operands, and no NaN bounds (under Compare
// a NaN bound would sit below every number, which is never what a
// filter against NaN means).
func (p Pred) Validate() error {
	if !ValidField(p.Field) {
		return fmt.Errorf("attr: invalid field name %q", p.Field)
	}
	checkVal := func(v Value) error {
		if v.Kind == KindInvalid || v.Kind > KindBool {
			return fmt.Errorf("attr: predicate on %q has invalid value kind", p.Field)
		}
		if v.Kind == KindFloat64 && math.IsNaN(v.F) {
			return fmt.Errorf("attr: predicate on %q has NaN bound", p.Field)
		}
		return nil
	}
	switch p.Op {
	case OpEq, OpLt, OpLe, OpGt, OpGe:
		return checkVal(p.Lo)
	case OpBetween:
		if err := checkVal(p.Lo); err != nil {
			return err
		}
		if err := checkVal(p.Hi); err != nil {
			return err
		}
		if p.Lo.Kind != p.Hi.Kind {
			return fmt.Errorf("attr: between bounds on %q mix %s and %s", p.Field, p.Lo.Kind, p.Hi.Kind)
		}
		return nil
	case OpIn:
		if len(p.Set) == 0 {
			return fmt.Errorf("attr: empty membership set on %q", p.Field)
		}
		for _, v := range p.Set {
			if err := checkVal(v); err != nil {
				return err
			}
			if v.Kind != p.Set[0].Kind {
				return fmt.Errorf("attr: membership set on %q mixes %s and %s", p.Field, p.Set[0].Kind, v.Kind)
			}
		}
		return nil
	}
	return fmt.Errorf("attr: predicate on %q has unknown operator", p.Field)
}

// ParsePred parses the canonical text form produced by Pred.String.
func ParsePred(s string) (Pred, error) {
	fieldEnd := 0
	for fieldEnd < len(s) {
		c := s[fieldEnd]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			fieldEnd++
			continue
		}
		break
	}
	field := s[:fieldEnd]
	if !ValidField(field) {
		return Pred{}, fmt.Errorf("attr: malformed predicate %q: no field name", s)
	}
	rest := s[fieldEnd:]
	var p Pred
	switch {
	case strings.HasPrefix(rest, " in ["):
		body := rest[len(" in ["):]
		lo, body, err := scanValue(body)
		if err != nil {
			return Pred{}, err
		}
		if !strings.HasPrefix(body, ",") {
			return Pred{}, fmt.Errorf("attr: malformed between predicate %q", s)
		}
		hi, body, err := scanValue(body[1:])
		if err != nil {
			return Pred{}, err
		}
		if body != "]" {
			return Pred{}, fmt.Errorf("attr: malformed between predicate %q", s)
		}
		p = Pred{Field: field, Op: OpBetween, Lo: lo, Hi: hi}
	case strings.HasPrefix(rest, " in {"):
		body := rest[len(" in {"):]
		var set []Value
		for {
			v, next, err := scanValue(body)
			if err != nil {
				return Pred{}, err
			}
			set = append(set, v)
			if strings.HasPrefix(next, ",") {
				body = next[1:]
				continue
			}
			if next != "}" {
				return Pred{}, fmt.Errorf("attr: malformed membership predicate %q", s)
			}
			break
		}
		p = Pred{Field: field, Op: OpIn, Set: set}
	case strings.HasPrefix(rest, "<="):
		v, err := ParseValue(rest[2:])
		if err != nil {
			return Pred{}, err
		}
		p = Pred{Field: field, Op: OpLe, Lo: v}
	case strings.HasPrefix(rest, ">="):
		v, err := ParseValue(rest[2:])
		if err != nil {
			return Pred{}, err
		}
		p = Pred{Field: field, Op: OpGe, Lo: v}
	case strings.HasPrefix(rest, "<"):
		v, err := ParseValue(rest[1:])
		if err != nil {
			return Pred{}, err
		}
		p = Pred{Field: field, Op: OpLt, Lo: v}
	case strings.HasPrefix(rest, ">"):
		v, err := ParseValue(rest[1:])
		if err != nil {
			return Pred{}, err
		}
		p = Pred{Field: field, Op: OpGt, Lo: v}
	case strings.HasPrefix(rest, "="):
		v, err := ParseValue(rest[1:])
		if err != nil {
			return Pred{}, err
		}
		p = Pred{Field: field, Op: OpEq, Lo: v}
	default:
		return Pred{}, fmt.Errorf("attr: malformed predicate %q: no operator", s)
	}
	if err := p.Validate(); err != nil {
		return Pred{}, err
	}
	return p, nil
}
