package attr

import (
	"fmt"
	"strconv"
	"strings"
)

// The parsers of the canonical text forms: Pred.String and
// Value.String must round-trip through them byte-for-byte.

// parsePred parses the canonical text form produced by Pred.String.
func parsePred(s string) (Pred, error) {
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
	if !validField(field) {
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
		v, err := parseValue(rest[2:])
		if err != nil {
			return Pred{}, err
		}
		p = Pred{Field: field, Op: OpLe, Lo: v}
	case strings.HasPrefix(rest, ">="):
		v, err := parseValue(rest[2:])
		if err != nil {
			return Pred{}, err
		}
		p = Pred{Field: field, Op: OpGe, Lo: v}
	case strings.HasPrefix(rest, "<"):
		v, err := parseValue(rest[1:])
		if err != nil {
			return Pred{}, err
		}
		p = Pred{Field: field, Op: OpLt, Lo: v}
	case strings.HasPrefix(rest, ">"):
		v, err := parseValue(rest[1:])
		if err != nil {
			return Pred{}, err
		}
		p = Pred{Field: field, Op: OpGt, Lo: v}
	case strings.HasPrefix(rest, "="):
		v, err := parseValue(rest[1:])
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

// parseValue parses the canonical text form produced by
// Value.String.
func parseValue(s string) (Value, error) {
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
		return intValue(i), rest, nil
	case 'f':
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return Value{}, s, fmt.Errorf("attr: malformed float value %q", tok)
		}
		return floatValue(f), rest, nil
	case 'b':
		b, err := strconv.ParseBool(tok)
		if err != nil {
			return Value{}, s, fmt.Errorf("attr: malformed bool value %q", tok)
		}
		return boolValue(b), rest, nil
	}
	return Value{}, s, fmt.Errorf("attr: unknown value kind tag %q", s[0])
}
