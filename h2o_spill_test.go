package h2o_test

import (
	"context"
	"testing"

	"h2o"
	"h2o/internal/storage"
)

// TestServeCacheSurvivesSpill drives the tiered-storage contract through
// the public serving path: with a memory budget forcing most segments to
// disk, queries stay correct, and — because residency changes are not
// version bumps — a result cached before an eviction/page-in cycle is
// still served as a cache hit afterwards.
func TestServeCacheSurvivesSpill(t *testing.T) {
	opts := h2o.DefaultOptions()
	opts.MemoryBudgetBytes = 1 // spill everything sealed
	opts.SpillDir = t.TempDir()
	db := h2o.NewDBWith(opts)
	defer db.Close()
	db.CreateTableFrom(h2o.SyntheticSchema("R", 8), 160_000, 2014)

	eng, err := db.Engine("R")
	if err != nil {
		t.Fatal(err)
	}
	eng.EnforceBudget()
	ts, err := db.TierStats("R")
	if err != nil {
		t.Fatal(err)
	}
	if ts.SpilledSegments == 0 {
		t.Fatalf("budget of 1 byte spilled nothing: %+v", ts)
	}

	const q = "select sum(a1), max(a2) from R where a0 < 100000"
	ctx := context.Background()

	// First execution faults segments in and caches the result.
	res1, info1, err := db.QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if info1.CacheHit {
		t.Fatal("first execution cannot be a cache hit")
	}

	// Evict everything again: the cached entry must still be addressable,
	// because spilling bumped no version.
	eng.EnforceBudget()
	res2, info2, err := db.QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.CacheHit {
		t.Fatal("result cached before a spill cycle was not served as a hit after it")
	}
	if !res1.Equal(res2) {
		t.Fatal("cached result diverged across a spill cycle")
	}

	// A real mutation still invalidates: insert, then expect a fresh
	// execution whose result reflects the new row.
	if _, _, err := db.QueryCtx(ctx, "insert into R values (1, 2, 3, 4, 5, 6, 7, 8)"); err != nil {
		t.Fatal(err)
	}
	_, info3, err := db.QueryCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if info3.CacheHit {
		t.Fatal("insert must invalidate the cached result")
	}
}

// TestQueryCorrectUnderBudgetFacade sweeps a few public-API queries with a
// tight budget and compares against an unlimited-memory database.
func TestQueryCorrectUnderBudgetFacade(t *testing.T) {
	queries := []string{
		"select sum(a1) from R",
		"select max(a3) from R where a0 < 0",
		"select a0, a2 from R where a1 > 900000000",
		"select min(a1 + a2) from R where a4 < 500000",
	}

	full := h2o.NewDB()
	full.CreateTableFrom(h2o.SyntheticSchema("R", 8), 160_000, 7)

	opts := h2o.DefaultOptions()
	opts.MemoryBudgetBytes = 1
	opts.SpillDir = t.TempDir()
	tight := h2o.NewDBWith(opts)
	tight.CreateTableFrom(h2o.SyntheticSchema("R", 8), 160_000, 7)
	eng, err := tight.Engine("R")
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		eng.EnforceBudget()
		for _, q := range queries {
			want, _, err := full.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			got, _, err := tight.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: spilled result diverged", q)
			}
		}
	}
}

// TestOldRowProjectionStaysEncoded: on a budgeted encoded-tier database, a
// projection of a few old rows reads the demoted segment's encoded blocks
// in place — reporting encoded-direct with header-skipped blocks — instead
// of decoding the whole segment flat. The budget leaves room for one more
// flat segment, so a flat decode would survive the query's eviction pass
// (the never-read segment 1 would be demoted in its place) and show up as
// a resident segment 0. Segment 1 is not the newest sealed segment, which
// the tier manager would demote last of all.
func TestOldRowProjectionStaysEncoded(t *testing.T) {
	const rows = 4 * 65_536 // three sealed segments + a full tail
	opts := h2o.DefaultOptions()
	opts.EncodedTier = true
	opts.SpillDir = t.TempDir()
	probe := h2o.NewDBWith(opts)
	probe.AddTable(h2o.GenerateTimeSeries(h2o.SyntheticSchema("R", 8), rows, 5))
	eng, err := probe.Engine("R")
	if err != nil {
		t.Fatal(err)
	}
	var resident int64
	for _, seg := range eng.Relation().Segments {
		resident += seg.ResidentBytes()
	}
	probe.Close()

	opts.MemoryBudgetBytes = resident - 1 // one demotion satisfies it
	db := h2o.NewDBWith(opts)
	defer db.Close()
	db.AddTable(h2o.GenerateTimeSeries(h2o.SyntheticSchema("R", 8), rows, 5))
	if eng, err = db.Engine("R"); err != nil {
		t.Fatal(err)
	}
	eng.EnforceBudget()
	old := eng.Relation().Segments[0]
	if old.State() != storage.SegEncoded {
		t.Fatalf("coldest segment at state %v after enforcement, want encoded", old.State())
	}

	res, info, err := db.Query("select a2, a3 from R where a0 >= 1000 and a0 < 1128")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 128 {
		t.Fatalf("got %d rows, want 128", res.Rows)
	}
	if info.Strategy.String() != "encoded-direct" {
		t.Fatalf("old-row projection ran %v, want encoded-direct", info.Strategy)
	}
	if info.DecodeSkips == 0 {
		t.Fatalf("no encoded block was skipped: %+v", info)
	}
	if old.State() == storage.SegResident {
		t.Fatal("the projection decoded its segment flat")
	}
}

// TestSaveTableKeepsTiering: a snapshot never decodes. On a budgeted
// encoded-tier table, SaveTable writes the encodings it finds — spilled
// segments are read from their spill files — so the save demotes nothing
// and adds no heap data; and saving a flat table caches no encodings.
// The snapshot still loads back to the same answers.
func TestSaveTableKeepsTiering(t *testing.T) {
	const segCap, attrs = 4096, 8
	query := "select sum(a1), max(a2), count(a3) from R where a0 < 0"
	t.Run("encoded-tier", func(t *testing.T) {
		opts := h2o.DefaultOptions()
		opts.SegmentCapacity = segCap
		opts.EncodedTier = true
		opts.MemoryBudgetBytes = 4 * segCap * attrs * 8 // four flat segments
		opts.SpillDir = t.TempDir()
		db := h2o.NewDBWith(opts)
		defer db.Close()
		db.CreateTableFrom(h2o.SyntheticSchema("R", attrs), 16*segCap+100, 2014) // 16 sealed segments and a tail
		eng, err := db.Engine("R")
		if err != nil {
			t.Fatal(err)
		}
		eng.EnforceBudget()
		before, err := db.TierStats("R")
		if err != nil {
			t.Fatal(err)
		}
		if before.Demotions == 0 || before.SpilledSegments == 0 {
			t.Fatalf("the budget demoted or spilled nothing: %+v", before)
		}
		want, _, err := db.QueryCtx(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		eng.EnforceBudget()
		before, _ = db.TierStats("R")

		path := t.TempDir() + "/r.h2o"
		if err := db.SaveTable("R", path); err != nil {
			t.Fatal(err)
		}
		after, err := db.TierStats("R")
		if err != nil {
			t.Fatal(err)
		}
		if after.Demotions != before.Demotions || after.ResidentBytes != before.ResidentBytes {
			t.Fatalf("SaveTable changed the tiering: demotions %d -> %d, resident bytes %d -> %d",
				before.Demotions, after.Demotions, before.ResidentBytes, after.ResidentBytes)
		}

		loaded := h2o.NewDB()
		defer loaded.Close()
		if _, err := loaded.LoadTable(path); err != nil {
			t.Fatal(err)
		}
		got, _, err := loaded.QueryCtx(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatal("the loaded snapshot answers differently")
		}
	})
	t.Run("flat", func(t *testing.T) {
		opts := h2o.DefaultOptions()
		opts.SegmentCapacity = segCap
		db := h2o.NewDBWith(opts)
		defer db.Close()
		db.CreateTableFrom(h2o.SyntheticSchema("R", attrs), 4*segCap+100, 2014)
		if err := db.SaveTable("R", t.TempDir()+"/r.h2o"); err != nil {
			t.Fatal(err)
		}
		eng, err := db.Engine("R")
		if err != nil {
			t.Fatal(err)
		}
		err = eng.View(func(rel *storage.Relation) error {
			for si, seg := range rel.Segments {
				for gi, g := range seg.Groups {
					if g.CachedEncoding() != nil {
						t.Errorf("segment %d group %d cached an encoding while saving", si, gi)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
