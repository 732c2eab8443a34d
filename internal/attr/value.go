// Package attr implements the typed attribute layer underneath the
// DSL's FilterEq/FilterRange/FilterIn chain methods: field schemas
// mapping tagged payload field names to typed accessors, typed
// predicates with a canonical text form (so plans containing them
// serialise, fingerprint, and cache), per-partition postings (each
// distinct value with the entries carrying it, in bounded sorted
// chunks, shared by the static sidecar and live datasets), and
// per-field statistics the cost-based planner uses to choose between
// spatial-first, attribute-first, and candidate-set-intersection
// access paths.
//
// The package is deliberately leaf-like: it imports only the standard
// library, so internal/stats, internal/plan, and internal/core can
// all depend on it without cycles.
package attr

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the payload field types the attribute layer
// understands.
type Kind uint8

const (
	KindInvalid Kind = iota
	KindInt64
	KindFloat64
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	}
	return "invalid"
}

// Value is one typed attribute value: a comparable struct (usable as
// a map key) with exactly one live slot selected by Kind. The zero
// Value has KindInvalid and matches nothing.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
}

// Int64 wraps an int64 as a Value.
func Int64(v int64) Value { return Value{Kind: KindInt64, I: v} }

// Float64 wraps a float64 as a Value.
func Float64(v float64) Value { return Value{Kind: KindFloat64, F: v} }

// String wraps a string as a Value.
func String(v string) Value { return Value{Kind: KindString, S: v} }

// Bool wraps a bool as a Value.
func Bool(v bool) Value { return Value{Kind: KindBool, B: v} }

// FromAny converts a dynamically typed value (as arriving from JSON
// bodies or variadic DSL arguments) to a Value. Integer-valued
// float64s stay float64 — the schema check at compile time reports a
// kind mismatch rather than silently coercing.
func FromAny(v any) (Value, error) {
	switch x := v.(type) {
	case int:
		return Int64(int64(x)), nil
	case int32:
		return Int64(int64(x)), nil
	case int64:
		return Int64(x), nil
	case float32:
		return Float64(float64(x)), nil
	case float64:
		return Float64(x), nil
	case string:
		return String(x), nil
	case bool:
		return Bool(x), nil
	case Value:
		return x, nil
	}
	return Value{}, fmt.Errorf("attr: unsupported value type %T", v)
}

// Coerce converts v to kind when the conversion is lossless enough to
// be unsurprising: int64 <-> float64 (JSON numbers arrive as float64
// even for integer fields). Any other cross-kind pair fails.
func (v Value) Coerce(kind Kind) (Value, error) {
	if v.Kind == kind {
		return v, nil
	}
	switch {
	case v.Kind == KindFloat64 && kind == KindInt64 && v.F == float64(int64(v.F)):
		return Int64(int64(v.F)), nil
	case v.Kind == KindInt64 && kind == KindFloat64:
		return Float64(float64(v.I)), nil
	}
	return Value{}, fmt.Errorf("attr: cannot use %s value %s as %s", v.Kind, v, kind)
}

// Compare orders v against o: by Kind first (giving mixed-kind sets a
// total order), then by value, a float NaN below every number and
// equal to another NaN (cmp.Compare's order). Returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		if v.Kind < o.Kind {
			return -1
		}
		return 1
	}
	switch v.Kind {
	case KindInt64:
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
	case KindFloat64:
		return cmp.Compare(v.F, o.F)
	case KindString:
		return strings.Compare(v.S, o.S)
	case KindBool:
		switch {
		case !v.B && o.B:
			return -1
		case v.B && !o.B:
			return 1
		}
	}
	return 0
}

// Less reports v < o under Compare's total order.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// Num projects a numeric value onto float64 for histogram estimation;
// ok is false for non-numeric kinds.
func (v Value) Num() (float64, bool) {
	switch v.Kind {
	case KindInt64:
		return float64(v.I), true
	case KindFloat64:
		return v.F, true
	}
	return 0, false
}

// String renders the canonical text form: a one-letter kind tag, a
// colon, and the value (strings strconv-quoted). The form round-trips
// through ParseValue byte-for-byte.
func (v Value) String() string {
	switch v.Kind {
	case KindInt64:
		return "i:" + strconv.FormatInt(v.I, 10)
	case KindFloat64:
		return "f:" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "s:" + strconv.Quote(v.S)
	case KindBool:
		return "b:" + strconv.FormatBool(v.B)
	}
	return "invalid"
}

// Go returns the value as its natural Go type (int64, float64,
// string, or bool), for JSON responses and diagnostics.
func (v Value) Go() any {
	switch v.Kind {
	case KindInt64:
		return v.I
	case KindFloat64:
		return v.F
	case KindString:
		return v.S
	case KindBool:
		return v.B
	}
	return nil
}

// ParseValue parses the canonical text form produced by
// Value.String.
func ParseValue(s string) (Value, error) {
	v, rest, err := scanValue(s)
	if err != nil {
		return Value{}, err
	}
	if rest != "" {
		return Value{}, fmt.Errorf("attr: trailing input %q after value", rest)
	}
	return v, nil
}

// scanValue consumes one canonical value from the front of s and
// returns the remainder. Unquoted tokens end at the first ',', ']',
// or '}'; quoted strings are consumed by the quote scanner so those
// delimiters may appear inside them.
func scanValue(s string) (Value, string, error) {
	if len(s) < 2 || s[1] != ':' {
		return Value{}, s, fmt.Errorf("attr: malformed value %q", s)
	}
	body := s[2:]
	if s[0] == 's' {
		q, err := strconv.QuotedPrefix(body)
		if err != nil {
			return Value{}, s, fmt.Errorf("attr: malformed string value %q", s)
		}
		u, err := strconv.Unquote(q)
		if err != nil {
			return Value{}, s, fmt.Errorf("attr: malformed string value %q", s)
		}
		return String(u), body[len(q):], nil
	}
	end := strings.IndexAny(body, ",]}")
	if end < 0 {
		end = len(body)
	}
	tok, rest := body[:end], body[end:]
	switch s[0] {
	case 'i':
		i, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return Value{}, s, fmt.Errorf("attr: malformed int value %q", tok)
		}
		return Int64(i), rest, nil
	case 'f':
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return Value{}, s, fmt.Errorf("attr: malformed float value %q", tok)
		}
		return Float64(f), rest, nil
	case 'b':
		b, err := strconv.ParseBool(tok)
		if err != nil {
			return Value{}, s, fmt.Errorf("attr: malformed bool value %q", tok)
		}
		return Bool(b), rest, nil
	}
	return Value{}, s, fmt.Errorf("attr: unknown value kind tag %q", s[0])
}

// ValidField reports whether name is a legal field name: an
// identifier ([A-Za-z_][A-Za-z0-9_]*). Restricting names keeps the
// canonical predicate grammar unambiguous.
func ValidField(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
