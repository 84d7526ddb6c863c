package storage

import (
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
)

// TestZoneMapMayMatch: a zone's min/max bounds decide each comparison
// exactly at the zone's edges, and ZoneRange clamps the last zone.
func TestZoneMapMayMatch(t *testing.T) {
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 1), 2048, 1)
	g := BuildGroup(tb, []data.AttrID{0})
	zm := BuildZoneMap(g, 1024)
	if zm.Zones() != 2 {
		t.Fatalf("zones = %d", zm.Zones())
	}
	// Zone 0 holds values [0,1023], zone 1 [1024,2047].
	cases := []struct {
		zi   int
		op   expr.CmpOp
		v    data.Value
		want bool
	}{
		{0, expr.Lt, 0, false},
		{0, expr.Lt, 1, true},
		{0, expr.Le, 0, true},
		{1, expr.Lt, 1024, false},
		{1, expr.Gt, 2046, true},
		{1, expr.Gt, 2047, false},
		{1, expr.Ge, 2047, true},
		{0, expr.Eq, 500, true},
		{0, expr.Eq, 1500, false},
		{0, expr.Ne, 5, true},
	}
	for _, c := range cases {
		if got := zm.MayMatch(c.zi, 0, c.op, c.v); got != c.want {
			t.Errorf("MayMatch(zone %d, %v %d) = %v, want %v", c.zi, c.op, c.v, got, c.want)
		}
	}
	// A constant block: Ne can exclude it.
	gc := NewGroup([]data.AttrID{0}, 100)
	for r := 0; r < 100; r++ {
		gc.Set(r, 0, 7)
	}
	zc := BuildZoneMap(gc, 100)
	if zc.MayMatch(0, 0, expr.Ne, 7) {
		t.Error("Ne over a constant block should be excludable")
	}
	lo, hi := zc.ZoneRange(0, 100)
	if lo != 0 || hi != 100 {
		t.Errorf("ZoneRange = [%d,%d)", lo, hi)
	}
}
