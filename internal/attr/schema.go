package attr

import (
	"fmt"
	"sort"
	"strings"

	"stark/internal/stobject"
)

// Field is one schema entry: a tagged field name, its kind, and the
// typed accessor projecting it out of a row's key and payload value.
type Field[V any] struct {
	Name string
	Kind Kind
	Get  func(key stobject.STObject, v V) Value
}

// Schema maps tagged field names of a payload type V to typed
// accessors. Build one with NewSchema and the chainable Int64 /
// Float64 / String / Bool registration methods, then attach it to a
// dataset chain with Dataset.WithSchema. An accessor receives the
// row's key too: the service's event rows keep their time there.
type Schema[V any] struct {
	fields []Field[V]
	byName map[string]int
}

// NewSchema returns an empty schema for payload type V.
func NewSchema[V any]() *Schema[V] {
	return &Schema[V]{byName: make(map[string]int)}
}

func (s *Schema[V]) add(name string, kind Kind, get func(stobject.STObject, V) Value) *Schema[V] {
	if !ValidField(name) {
		panic(fmt.Sprintf("attr: invalid field name %q", name))
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("attr: duplicate field %q", name))
	}
	s.byName[name] = len(s.fields)
	s.fields = append(s.fields, Field[V]{Name: name, Kind: kind, Get: get})
	return s
}

// Int64 registers an int64 field.
func (s *Schema[V]) Int64(name string, get func(stobject.STObject, V) int64) *Schema[V] {
	return s.add(name, KindInt64, func(key stobject.STObject, v V) Value { return Int64(get(key, v)) })
}

// Float64 registers a float64 field.
func (s *Schema[V]) Float64(name string, get func(stobject.STObject, V) float64) *Schema[V] {
	return s.add(name, KindFloat64, func(key stobject.STObject, v V) Value { return Float64(get(key, v)) })
}

// String registers a string field.
func (s *Schema[V]) String(name string, get func(stobject.STObject, V) string) *Schema[V] {
	return s.add(name, KindString, func(key stobject.STObject, v V) Value { return String(get(key, v)) })
}

// Bool registers a bool field.
func (s *Schema[V]) Bool(name string, get func(stobject.STObject, V) bool) *Schema[V] {
	return s.add(name, KindBool, func(key stobject.STObject, v V) Value { return Bool(get(key, v)) })
}

// Field looks up a registered field by name.
func (s *Schema[V]) Field(name string) (Field[V], bool) {
	if s == nil {
		return Field[V]{}, false
	}
	i, ok := s.byName[name]
	if !ok {
		return Field[V]{}, false
	}
	return s.fields[i], true
}

// Fields returns the registered fields in registration order.
func (s *Schema[V]) Fields() []Field[V] {
	if s == nil {
		return nil
	}
	return append([]Field[V](nil), s.fields...)
}

// Names returns the registered field names, sorted for stable
// diagnostics.
func (s *Schema[V]) Names() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.fields))
	for _, f := range s.fields {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}

// Check validates a predicate against the schema: the field must be
// registered and the operand kind must match the field kind (int64
// and float64 operands are coerced when lossless). It returns the
// possibly coerced predicate.
func (s *Schema[V]) Check(p Pred) (Pred, error) {
	if s == nil {
		return p, fmt.Errorf("attr: no schema registered (call WithSchema before FilterEq/FilterRange/FilterIn)")
	}
	f, ok := s.Field(p.Field)
	if !ok {
		return p, fmt.Errorf("attr: unknown field %q (schema has: %s)", p.Field, strings.Join(s.Names(), ", "))
	}
	coerce := func(v Value) (Value, error) {
		cv, err := v.Coerce(f.Kind)
		if err != nil {
			return v, fmt.Errorf("attr: field %q is %s: %w", p.Field, f.Kind, err)
		}
		return cv, nil
	}
	var err error
	switch p.Op {
	case OpEq, OpLt, OpLe, OpGt, OpGe:
		if p.Lo, err = coerce(p.Lo); err != nil {
			return p, err
		}
	case OpBetween:
		if p.Lo, err = coerce(p.Lo); err != nil {
			return p, err
		}
		if p.Hi, err = coerce(p.Hi); err != nil {
			return p, err
		}
	case OpIn:
		set := append([]Value(nil), p.Set...)
		for i, v := range set {
			if set[i], err = coerce(v); err != nil {
				return p, err
			}
		}
		p.Set = set
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}
