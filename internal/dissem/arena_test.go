package dissem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ringcast/internal/core"
	"ringcast/internal/ident"
)

// refResolve is the straightforward sequential link resolution the arena
// replaced, kept as the property-test oracle: walk nodes in order, R before
// D, mapping known IDs to their position, nil to NilPos, and distinct
// unknown IDs to distinct placeholders numbered by first occurrence.
func refResolve(ids []ident.ID, links []core.Links) [][2][]int32 {
	index := make(map[ident.ID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	unknown := make(map[ident.ID]int32)
	resolve := func(id ident.ID) int32 {
		if id.IsNil() {
			return core.NilPos
		}
		if i, ok := index[id]; ok {
			return int32(i)
		}
		p, ok := unknown[id]
		if !ok {
			p = int32(-2 - len(unknown))
			unknown[id] = p
		}
		return p
	}
	out := make([][2][]int32, len(links))
	for i, l := range links {
		for _, id := range l.R {
			out[i][0] = append(out[i][0], resolve(id))
		}
		for _, id := range l.D {
			out[i][1] = append(out[i][1], resolve(id))
		}
	}
	return out
}

// randomOverlayInput derives a random small overlay (distinct non-nil IDs,
// link sets mixing known, nil, dangling and duplicate targets) from a seed.
func randomOverlayInput(seed int64) ([]ident.ID, []core.Links) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(59)
	gen := ident.NewGenerator(seed)
	ids := make([]ident.ID, n)
	for i := range ids {
		ids[i] = gen.Next()
	}
	pick := func() ident.ID {
		switch rng.Intn(10) {
		case 0:
			return ident.Nil
		case 1, 2:
			return ident.ID(rng.Uint64() | 1<<63) // likely-dangling foreign ID
		default:
			return ids[rng.Intn(n)]
		}
	}
	links := make([]core.Links, n)
	for i := range links {
		for k := rng.Intn(9); k > 0; k-- {
			links[i].R = append(links[i].R, pick())
		}
		for k := rng.Intn(5); k > 0; k-- {
			links[i].D = append(links[i].D, pick())
		}
	}
	return ids, links
}

// equalPosLinks compares an arena view against the oracle's slices,
// treating nil and empty as equal.
func equalPosLinks(got core.PosLinks, wantR, wantD []int32) bool {
	eq := func(a, b []int32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	return eq(got.R, wantR) && eq(got.D, wantD)
}

// TestArenaMatchesReference is the arena correctness property: for random
// small overlays, the arena-backed PosLinks view of every node equals the
// sequential reference resolution — including nil links, dangling-link
// placeholder numbering, and duplicate targets.
func TestArenaMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		ids, links := randomOverlayInput(seed)
		o, err := FromLinks(ids, links)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := refResolve(ids, links)
		for i := range ids {
			if !equalPosLinks(o.PosLinks(i), want[i][0], want[i][1]) {
				t.Logf("seed %d node %d: arena %v/%v want %v/%v",
					seed, i, o.PosLinks(i).R, o.PosLinks(i).D, want[i][0], want[i][1])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestArenaParallelismInvariant is the construction determinism property:
// shard-parallel arena construction at P = 1, 2 and 4 produces identical
// arenas for random overlays.
func TestArenaParallelismInvariant(t *testing.T) {
	f := func(seed int64) bool {
		ids, links := randomOverlayInput(seed)
		ref, err := FromLinksParallel(ids, links, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range []int{2, 4} {
			o, err := FromLinksParallel(ids, links, p)
			if err != nil {
				t.Fatalf("seed %d P=%d: %v", seed, p, err)
			}
			for i := range ids {
				if !equalPosLinks(o.PosLinks(i), ref.PosLinks(i).R, ref.PosLinks(i).D) {
					t.Logf("seed %d P=%d node %d differs", seed, p, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestArenaMultiShardParallel exercises the sharded fill across shard
// boundaries (N > arenaShardNodes) with dangling links whose placeholder
// numbering must not depend on the worker count.
func TestArenaMultiShardParallel(t *testing.T) {
	const n = 2*arenaShardNodes + 123
	gen := ident.NewGenerator(5)
	rng := rand.New(rand.NewSource(5))
	ids := make([]ident.ID, n)
	for i := range ids {
		ids[i] = gen.Next()
	}
	links := make([]core.Links, n)
	for i := range links {
		links[i].D = []ident.ID{ids[(i+1)%n], ids[(i+n-1)%n]}
		for k := 0; k < 4; k++ {
			links[i].R = append(links[i].R, ids[rng.Intn(n)])
		}
		if i%97 == 0 { // sprinkle dangling links across shard boundaries
			links[i].R = append(links[i].R, ident.ID(rng.Uint64()|1<<63))
		}
	}
	ref, err := FromLinksParallel(ids, links, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := refResolve(ids, links)
	for i := range ids {
		if !equalPosLinks(ref.PosLinks(i), want[i][0], want[i][1]) {
			t.Fatalf("node %d: sequential arena diverges from reference", i)
		}
	}
	for _, p := range []int{2, 4} {
		o, err := FromLinksParallel(ids, links, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			if !equalPosLinks(o.PosLinks(i), ref.PosLinks(i).R, ref.PosLinks(i).D) {
				t.Fatalf("P=%d node %d differs from sequential arena", p, i)
			}
		}
	}
}
