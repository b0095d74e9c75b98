package rtree

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
)

// buildMutatedTree grows a tree through the incremental path (inserts
// plus some deletes), so its structure — unlike a bulk load's — carries
// splits, reinserts and page-id gaps. That is the hardest state a
// snapshot has to reproduce faithfully.
func buildMutatedTree(t *testing.T, n, dim int, seed int64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree, err := New(Config{Dim: dim, MaxEntries: 8, FirstPage: 1000})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		p := make(geom.Point, dim)
		for a := range p {
			p[a] = rng.Float64() * 512
		}
		pts = append(pts, p)
		if err := tree.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/5; i++ {
		j := rng.Intn(len(pts))
		if !tree.Delete(pts[j], int64(j)) && pts[j] != nil {
			t.Fatalf("delete %d failed", j)
		}
		pts[j] = nil
	}
	return tree
}

func TestPackedSnapshotRoundTrip(t *testing.T) {
	tree := buildMutatedTree(t, 400, 2, 11)
	p := tree.Pack()

	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	var loaded Packed
	if n, err := loaded.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	} else if n != int64(buf.Len()) {
		t.Fatalf("ReadFrom consumed %d of %d bytes", n, buf.Len())
	}

	// The arena must be identical field for field.
	if loaded.root != p.root || loaded.Dim() != p.Dim() || loaded.size != p.size ||
		loaded.height != p.height || loaded.pages != p.pages {
		t.Fatalf("scalars differ: %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d",
			loaded.root, loaded.Dim(), loaded.size, loaded.height, loaded.pages,
			p.root, p.Dim(), p.size, p.height, p.pages)
	}
	for name, pair := range map[string][2]any{
		"level": {loaded.level, p.level},
		"page":  {loaded.page, p.page},
		"start": {loaded.start, p.start},
		"end":   {loaded.end, p.end},
		"child": {loaded.child, p.child},
		"rlo":   {loaded.rlo, p.rlo},
		"rhi":   {loaded.rhi, p.rhi},
		"pc":    {loaded.pc, p.pc},
		"pts":   {loaded.pts, p.pts},
		"ids":   {loaded.ids, p.ids},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("arena array %s did not round-trip", name)
		}
	}

	// The loaded arena must be a valid R-tree with the writer's shape and
	// paging.
	if err := loaded.CheckInvariants(); err != nil {
		t.Fatalf("loaded arena invariants: %v", err)
	}
	if loaded.cfg.MaxEntries != tree.cfg.MaxEntries || loaded.cfg.MinEntries != tree.cfg.MinEntries ||
		loaded.cfg.FirstPage != tree.cfg.FirstPage {
		t.Fatalf("config: %d/%d/%d vs %d/%d/%d", loaded.cfg.MinEntries, loaded.cfg.MaxEntries,
			loaded.cfg.FirstPage, tree.cfg.MinEntries, tree.cfg.MaxEntries, tree.cfg.FirstPage)
	}
	wb := tree.nodeMBR(tree.root)
	lb, ok := loaded.Bounds()
	if !ok || !wb.Equal(lb) {
		t.Fatalf("bounds: %v vs %v", lb, wb)
	}

	// Queries on the loaded arena must match the writer's results AND
	// accesses exactly.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		q := geom.Point{rng.Float64() * 512, rng.Float64() * 512}
		var wtk, ltk pagestore.CostTracker
		want := p.Reader(&wtk).NearestBF(q, 5)
		got := loaded.Reader(&ltk).NearestBF(q, 5)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %d: results differ", i)
		}
		if wtk != ltk {
			t.Fatalf("query %d: cost %+v (writer) vs %+v (loaded)", i, wtk, ltk)
		}
	}

	// Round-trip is canonical: writing the loaded arena reproduces the
	// exact bytes.
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("snapshot bytes are not canonical across a load/save cycle")
	}
}
