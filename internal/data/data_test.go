package data

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	if _, err := NewSchema("r", []string{"a", "b", "a"}); err == nil {
		t.Fatal("expected error for duplicate attribute names")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := SyntheticSchema("r", 5)
	if s.NumAttrs() != 5 {
		t.Fatalf("NumAttrs = %d, want 5", s.NumAttrs())
	}
	id, err := s.AttrIndex("a3")
	if err != nil || id != 3 {
		t.Fatalf("AttrIndex(a3) = %d, %v; want 3, nil", id, err)
	}
	if _, err := s.AttrIndex("zz"); err == nil {
		t.Fatal("expected error for unknown attribute")
	}
	if s.AttrName(2) != "a2" {
		t.Fatalf("AttrName(2) = %q, want a2", s.AttrName(2))
	}
}

func TestValidAttrs(t *testing.T) {
	s := SyntheticSchema("r", 3)
	if !s.ValidAttrs([]AttrID{0, 2}) {
		t.Fatal("ValidAttrs rejected in-range ids")
	}
	if s.ValidAttrs([]AttrID{3}) || s.ValidAttrs([]AttrID{-1}) {
		t.Fatal("ValidAttrs accepted out-of-range id")
	}
}

func TestSortedUnique(t *testing.T) {
	got := SortedUnique([]AttrID{5, 1, 5, 3, 1})
	want := []AttrID{1, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedUnique = %v, want %v", got, want)
	}
	if SortedUnique(nil) != nil {
		t.Fatal("SortedUnique(nil) should be nil")
	}
	// Input must not be mutated.
	in := []AttrID{3, 1, 2}
	SortedUnique(in)
	if !reflect.DeepEqual(in, []AttrID{3, 1, 2}) {
		t.Fatalf("SortedUnique mutated its input: %v", in)
	}
}

func TestSortedUniqueProperty(t *testing.T) {
	f := func(in []uint8) bool {
		attrs := make([]AttrID, len(in))
		for i, v := range in {
			attrs[i] = AttrID(v)
		}
		out := SortedUnique(attrs)
		if !sort.IntsAreSorted(out) {
			return false
		}
		seen := map[AttrID]bool{}
		for _, a := range out {
			if seen[a] {
				return false
			}
			seen[a] = true
		}
		for _, a := range attrs {
			if !seen[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetOperations(t *testing.T) {
	a := []AttrID{1, 3, 5, 7}
	b := []AttrID{3, 4, 5}
	if got := Intersect(a, b); !reflect.DeepEqual(got, []AttrID{3, 5}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := Union(a, b); !reflect.DeepEqual(got, []AttrID{1, 3, 4, 5, 7}) {
		t.Fatalf("Union = %v", got)
	}
	if !ContainsAll(a, []AttrID{1, 7}) {
		t.Fatal("ContainsAll false negative")
	}
	if ContainsAll(a, []AttrID{1, 2}) {
		t.Fatal("ContainsAll false positive")
	}
	if !ContainsAll(a, nil) {
		t.Fatal("every set contains the empty set")
	}
}

func TestIntersectCount(t *testing.T) {
	for _, tc := range []struct {
		a, b []AttrID
		want int
	}{
		{nil, nil, 0},
		{[]AttrID{1, 2}, nil, 0},
		{nil, []AttrID{1, 2}, 0},
		{[]AttrID{1, 3, 5, 7}, []AttrID{3, 4, 5}, 2},
		{[]AttrID{1, 2, 3}, []AttrID{1, 2, 3}, 3},
		{[]AttrID{1, 2, 3}, []AttrID{4, 5, 6}, 0},
		{[]AttrID{0}, []AttrID{0, 9}, 1},
		{[]AttrID{9}, []AttrID{0, 9}, 1},
	} {
		if got := IntersectCount(tc.a, tc.b); got != tc.want {
			t.Errorf("IntersectCount(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := IntersectCount(tc.b, tc.a); got != tc.want {
			t.Errorf("IntersectCount(%v, %v) = %d, want %d", tc.b, tc.a, got, tc.want)
		}
	}
}

// TestIntersectCountMatchesIntersect checks IntersectCount against the
// length of the set Intersect builds, on random sorted sets.
func TestIntersectCountMatchesIntersect(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := SortedUnique(toAttrs(xs))
		b := SortedUnique(toAttrs(ys))
		return IntersectCount(a, b) == len(Intersect(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSetOperationsProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := SortedUnique(toAttrs(xs))
		b := SortedUnique(toAttrs(ys))
		u := Union(a, b)
		i := Intersect(a, b)
		if !sort.IntsAreSorted(u) || !sort.IntsAreSorted(i) {
			return false
		}
		// |A| + |B| = |A∪B| + |A∩B|
		if len(a)+len(b) != len(u)+len(i) {
			return false
		}
		return ContainsAll(u, a) && ContainsAll(u, b) &&
			ContainsAll(a, i) && ContainsAll(b, i)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministicAndInRange(t *testing.T) {
	s := SyntheticSchema("r", 4)
	t1 := Generate(s, 1000, 42)
	t2 := Generate(s, 1000, 42)
	for a := 0; a < 4; a++ {
		if !reflect.DeepEqual(t1.Cols[a], t2.Cols[a]) {
			t.Fatalf("generation not deterministic for attribute %d", a)
		}
		for r, v := range t1.Cols[a] {
			if v < ValueLo || v >= ValueHi {
				t.Fatalf("value out of range at (%d,%d): %d", r, a, v)
			}
		}
	}
	t3 := Generate(s, 1000, 43)
	if reflect.DeepEqual(t1.Cols[0], t3.Cols[0]) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateSelectiveDial(t *testing.T) {
	s := SyntheticSchema("r", 3)
	rows := 10_000
	tb := GenerateSelective(s, rows, 7)
	for _, f := range []float64{0, 0.01, 0.1, 0.4, 1.0} {
		cut := SelectivityCut(rows, f)
		n := 0
		for _, v := range tb.Cols[0] {
			if v < cut {
				n++
			}
		}
		want := int(f * float64(rows))
		if n != want {
			t.Fatalf("selectivity %.2f: got %d qualifying, want %d", f, n, want)
		}
	}
	// Other columns remain uniform in range.
	for _, v := range tb.Cols[1] {
		if v < ValueLo || v >= ValueHi {
			t.Fatalf("non-dial column out of range: %d", v)
		}
	}
}

func TestSelectivityCutClamps(t *testing.T) {
	if SelectivityCut(100, -0.5) != 0 {
		t.Fatal("negative fraction should clamp to 0")
	}
	if SelectivityCut(100, 2.0) != 100 {
		t.Fatal("fraction > 1 should clamp to rows")
	}
}

func TestTableValue(t *testing.T) {
	s := SyntheticSchema("r", 2)
	tb := Generate(s, 10, 1)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20; i++ {
		r, a := rng.Intn(10), rng.Intn(2)
		if tb.Value(r, a) != tb.Cols[a][r] {
			t.Fatal("Value accessor disagrees with Cols")
		}
	}
}

func toAttrs(in []uint8) []AttrID {
	out := make([]AttrID, len(in))
	for i, v := range in {
		out[i] = AttrID(v)
	}
	return out
}
