// Package data defines the basic value, schema and relation metadata types
// shared by every layer of the H2O engine, together with the deterministic
// synthetic data generators used throughout the paper's evaluation
// (integer attributes uniformly distributed in [-1e9, 1e9)).
package data

import (
	"fmt"
	"sort"
)

// Value is the single attribute value type supported by the engine.
// The paper evaluates exclusively on fixed-width integer attributes
// ("each tuple contains ... attributes with integers randomly distributed");
// fixed-width int64 keeps every layout a flat slice with explicit strides.
type Value = int64

// AttrID identifies an attribute by its position in the base relation schema.
type AttrID = int

// Schema describes the attributes of a relation.
type Schema struct {
	Name  string
	Attrs []string

	byName map[string]AttrID
}

// NewSchema builds a schema with the given relation and attribute names.
// Attribute names must be unique.
func NewSchema(name string, attrs []string) (*Schema, error) {
	s := &Schema{Name: name, Attrs: attrs, byName: make(map[string]AttrID, len(attrs))}
	for i, a := range attrs {
		if _, dup := s.byName[a]; dup {
			return nil, fmt.Errorf("data: duplicate attribute %q in schema %q", a, name)
		}
		s.byName[a] = i
	}
	return s, nil
}

// SyntheticSchema builds a schema named name with n attributes a0..a{n-1},
// the shape used by every micro-benchmark in the paper.
func SyntheticSchema(name string, n int) *Schema {
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	s, err := NewSchema(name, attrs)
	if err != nil {
		panic(err) // unreachable: generated names are unique
	}
	return s
}

// NumAttrs returns the number of attributes in the schema.
func (s *Schema) NumAttrs() int { return len(s.Attrs) }

// AttrIndex returns the position of the named attribute, or an error if the
// attribute does not exist.
func (s *Schema) AttrIndex(name string) (AttrID, error) {
	id, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("data: relation %q has no attribute %q", s.Name, name)
	}
	return id, nil
}

// AttrName returns the name of attribute id. It panics if id is out of range,
// mirroring slice indexing semantics.
func (s *Schema) AttrName(id AttrID) string { return s.Attrs[id] }

// ValidAttrs reports whether every id in attrs is a valid attribute position.
func (s *Schema) ValidAttrs(attrs []AttrID) bool {
	for _, a := range attrs {
		if a < 0 || a >= len(s.Attrs) {
			return false
		}
	}
	return true
}

// SortedUnique returns a sorted copy of attrs with duplicates removed.
// Layout code normalizes attribute sets this way so that two groups covering
// the same attributes compare equal.
func SortedUnique(attrs []AttrID) []AttrID {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]AttrID, len(attrs))
	copy(out, attrs)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// ContainsAll reports whether sorted set super contains every element of the
// sorted set sub. Both arguments must be sorted ascending.
func ContainsAll(super, sub []AttrID) bool {
	i := 0
	for _, want := range sub {
		for i < len(super) && super[i] < want {
			i++
		}
		if i >= len(super) || super[i] != want {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of two sorted attribute sets.
func Intersect(a, b []AttrID) []AttrID {
	var out []AttrID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// IntersectCount returns the size of the intersection of two sorted
// attribute sets, len(Intersect(a, b)) without building it.
func IntersectCount(a, b []AttrID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Union returns the union of two sorted attribute sets, sorted.
func Union(a, b []AttrID) []AttrID {
	out := make([]AttrID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
