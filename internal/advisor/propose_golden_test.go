package advisor

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"h2o/internal/costmodel"
	"h2o/internal/data"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// goldenRelation is a 30-attribute, four-segment relation with a mixed
// layout: column-major everywhere, plus a prior group over a0..a5 in
// segments 0 and 2 only, so the move a candidate is priced at differs by
// segment.
func goldenRelation(t *testing.T) *storage.Relation {
	t.Helper()
	const segCap = 4096
	tb := data.Generate(data.SyntheticSchema("R", 30), 4*segCap-100, 11)
	rel := storage.BuildColumnMajorSeg(tb, segCap)
	for _, si := range []int{0, 2} {
		g, err := storage.StitchSeg(rel.Segments[si], []data.AttrID{0, 1, 2, 3, 4, 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Segments[si].AddGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// goldenWindow draws n queries over a few drifting hot attribute sets.
func goldenWindow(rng *rand.Rand, n int) []query.Info {
	hot := make([][]data.AttrID, 3)
	for i := range hot {
		for k := 0; k < 2+rng.Intn(6); k++ {
			hot[i] = append(hot[i], rng.Intn(30))
		}
	}
	w := make([]query.Info, n)
	for i := range w {
		sel := append([]data.AttrID(nil), hot[rng.Intn(len(hot))]...)
		if rng.Intn(4) == 0 {
			sel = append(sel, rng.Intn(30))
		}
		var where []data.AttrID
		if rng.Intn(2) == 0 {
			where = []data.AttrID{rng.Intn(30)}
		}
		w[i] = info(sel, where)
	}
	return w
}

// TestProposeSeededWindows pins Propose's output — attributes, gain and
// priced move, per segment — on seeded windows over a mixed layout, so a
// change to how candidates are evaluated cannot change what is proposed.
func TestProposeSeededWindows(t *testing.T) {
	rel := goldenRelation(t)
	m := costmodel.New(costmodel.Default())
	var b strings.Builder
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		if seed%2 == 0 {
			cfg.MinGainRatio = 0
		}
		fmt.Fprintf(&b, "seed %d:", seed)
		for _, p := range Propose(rel, goldenWindow(rng, 8+rng.Intn(20)), m, cfg) {
			fmt.Fprintf(&b, " %v/%.6g/%d/%v", p.Attrs, float64(p.Gain), p.TransformBytes, p.SegmentBytes)
		}
		b.WriteString("\n")
	}
	if got := b.String(); got != proposeGolden {
		t.Fatalf("proposals changed:\n got:\n%s\nwant:\n%s", got, proposeGolden)
	}
}

const proposeGolden = `seed 1: [0 1 20]/0.00275281/1043776/[327680 196608 327680 191808] [5 17 21 27 28]/0.00158525/1302720/[327680 327680 327680 319680] [0 1 13 20]/0.000522716/1304320/[393216 262144 393216 255744] [0 1 4 20]/0.000522716/1238784/[360448 262144 360448 255744]
seed 2: [6 9 17 22 29]/0.00290344/1302720/[327680 327680 327680 319680] [10 12 14 29]/0.00163654/1042176/[262144 262144 262144 255744] [6 7 9 17 22 27]/0.000911904/1563264/[393216 393216 393216 383616] [7 10 12 14 20]/0.000784075/1302720/[327680 327680 327680 319680]
seed 3: [6 14 17 24 26]/0.00269337/1302720/[327680 327680 327680 319680] [0 1 3 14 27 29]/0.0019036/1759872/[491520 393216 491520 383616] [6 15 17 24 26]/0.00140042/1302720/[327680 327680 327680 319680] [7 13 23]/0.00121316/781632/[196608 196608 196608 191808]
seed 4: [4 13 27]/0.00318189/781632/[196608 196608 196608 191808] [6 7 20 25 29]/0.00255659/1302720/[327680 327680 327680 319680] [6 10 23]/0.00121316/781632/[196608 196608 196608 191808] [6 18 23 24]/0.000656245/1042176/[262144 262144 262144 255744]
seed 5: [2 4 16 18 19 24 27 29]/0.00275037/2346496/[655360 524288 655360 511488] [5 7 12 19 22 25]/0.00254275/1563264/[393216 393216 393216 383616] [16 19 27 29]/0.00226999/1042176/[262144 262144 262144 255744] [4 7 18 24 27]/0.00150546/1302720/[327680 327680 327680 319680]
seed 6: [9 12 16 20 26]/0.00321039/1302720/[327680 327680 327680 319680] [5 10 11 13 27]/0.00230989/1302720/[327680 327680 327680 319680] [3 8 22]/0.00198013/781632/[196608 196608 196608 191808] [9 14 16 20 26 27]/0.000911904/1563264/[393216 393216 393216 383616]
`
