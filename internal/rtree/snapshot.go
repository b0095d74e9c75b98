package rtree

import (
	"fmt"
	"io"
	"unsafe"

	"gnn/internal/geom"
	"gnn/internal/pagestore"
	"gnn/internal/snapshot"
)

// Snapshot returns the serialisable arena of the packed tree. The
// returned Tree borrows the snapshot's slices (no copies except the page
// array, whose element type differs), so it is cheap and must be treated
// as read-only, valid while p is.
func (p *Packed) Snapshot() *snapshot.Tree {
	pages := make([]int64, len(p.page))
	for i, pg := range p.page {
		pages[i] = int64(pg)
	}
	return &snapshot.Tree{
		Size:       p.size,
		Height:     p.height,
		MaxEntries: p.cfg.MaxEntries,
		MinEntries: p.cfg.MinEntries,
		FirstPage:  int64(p.cfg.FirstPage),
		Pages:      p.pages,
		Root:       p.root,
		Level:      p.level,
		Page:       pages,
		Start:      p.start,
		End:        p.end,
		Child:      p.child,
		RectLo:     p.rlo,
		RectHi:     p.rhi,
		PointCols:  p.pc,
		IDs:        p.ids,
	}
}

// ArenaBytes returns the approximate in-memory size of the packed arena's
// flat arrays (node metadata, routing rectangles, coordinate columns,
// ids, point-major point view) — the payload a snapshot serialises, plus
// the point view every result is emitted from.
func (p *Packed) ArenaBytes() int64 {
	nodes := int64(len(p.level))
	rslots := int64(len(p.child))
	lslots := int64(len(p.ids))
	d := int64(p.cfg.Dim)
	return nodes*(4+8+4+4) + // level, page, start, end
		rslots*4 + 2*d*rslots*8 + // child, rlo, rhi
		d*lslots*8 + lslots*8 + // pc, ids
		lslots*24 // pts slice headers (the coordinate slab is counted once, in pc)
}

// countingWriter tracks bytes written for io.WriterTo bookkeeping.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serialises the packed arena as a single-tree (plain) snapshot
// in the format of internal/snapshot, implementing io.WriterTo. Sharded
// snapshots are assembled one layer up (internal/shard) from the same
// per-tree sections.
func (p *Packed) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	m := snapshot.Manifest{Kind: snapshot.KindPlain, Dim: p.cfg.Dim, Points: p.size}
	err := snapshot.Write(cw, m, []*snapshot.Tree{p.Snapshot()})
	return cw.n, err
}

// ReadFrom loads a single-tree snapshot into p, implementing
// io.ReaderFrom: the receiver (typically zero) is overwritten with the
// deserialised arena, which answers every query with bit-identical
// results, costs and node-access counts to the arena that wrote the
// snapshot. A fresh unbuffered Accountant is attached; load through the
// public layer (gnn.OpenSnapshot) to configure buffering.
func (p *Packed) ReadFrom(r io.Reader) (int64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return int64(len(data)), err
	}
	m, trees, err := snapshot.Decode(data)
	if err != nil {
		return int64(len(data)), err
	}
	if m.Kind != snapshot.KindPlain {
		return int64(len(data)), fmt.Errorf("rtree: snapshot kind %v, want %v", m.Kind, snapshot.KindPlain)
	}
	loaded, err := PackedFromSnapshot(trees[0], m.Dim, Config{})
	if err != nil {
		return int64(len(data)), err
	}
	*p = *loaded
	return int64(len(data)), nil
}

// PackedFromSnapshot reconstructs a packed arena from a decoded snapshot
// tree. The arena arrays are adopted directly from st (zero rebuild);
// only the point-major view of the leaf coordinates is gathered. cfg
// supplies runtime wiring only (Accountant); the structural parameters
// (dimension, node capacity, page range) come from the snapshot.
//
// Page identifiers are preserved node for node and the entry order
// inside every node is the writer's, so traversals on the loaded arena
// charge the same accesses in the same order: results, Cost and NA are
// bit-identical to the writer's.
func PackedFromSnapshot(st *snapshot.Tree, dim int, cfg Config) (*Packed, error) {
	cfg, err := snapshotConfig(st, dim, cfg)
	if err != nil {
		return nil, err
	}
	pages := make([]pagestore.PageID, len(st.Level))
	maxPage := cfg.FirstPage + pagestore.PageID(st.Pages) - 1
	for i, pg := range st.Page {
		pages[i] = pagestore.PageID(pg)
		if pages[i] > maxPage {
			maxPage = pages[i]
		}
	}
	p := adoptArena(st, cfg, pages, int64(maxPage+1-cfg.FirstPage))
	p.pts = pointView(st.PointCols, dim, len(st.IDs))
	p.mbr = p.rootMBR()
	return p, nil
}

// snapshotConfig applies a snapshot's structural parameters to the
// caller's runtime configuration.
func snapshotConfig(st *snapshot.Tree, dim int, cfg Config) (Config, error) {
	cfg.Dim = dim
	cfg.MaxEntries = st.MaxEntries
	cfg.MinEntries = st.MinEntries
	cfg.FirstPage = pagestore.PageID(st.FirstPage)
	cfg, err := cfg.withDefaults()
	if err != nil {
		return cfg, fmt.Errorf("rtree: snapshot config: %w", err)
	}
	return cfg, nil
}

// adoptArena wraps st's arrays (and the page column) into an arena
// without copying them.
func adoptArena(st *snapshot.Tree, cfg Config, pages []pagestore.PageID, numPages int64) *Packed {
	return &Packed{
		cfg: cfg, pages: numPages, size: st.Size, height: st.Height,
		root:  st.Root,
		level: st.Level,
		page:  pages,
		start: st.Start,
		end:   st.End,
		child: st.Child,
		rlo:   st.RectLo,
		rhi:   st.RectHi,
		pc:    st.PointCols,
		ids:   st.IDs,
	}
}

// pointView gathers the axis-major leaf columns into one point-major
// slab: the geom.Point view results are emitted from.
func pointView(cols [][]float64, dim, n int) []geom.Point {
	slab := make([]float64, dim*n)
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		pt := slab[i*dim : (i+1)*dim : (i+1)*dim]
		for a := 0; a < dim; a++ {
			pt[a] = cols[a][i]
		}
		pts[i] = pt
	}
	return pts
}

// PackedFromSnapshotBorrowed is the zero-copy sibling of
// PackedFromSnapshot: the arena arrays alias st's slices (which for a
// mapped open alias the file mapping itself) and the expensive open work
// is deferred.
//
// verify runs the caller's deferred validation of st's backing bytes
// (checksums and structural checks, e.g. snapshot.Adopted.Verify); it is
// invoked exactly once, from Packed.Prepare, before the first traversal.
// After verify succeeds, Prepare materialises the one representation the
// snapshot's axis-major columns cannot alias — the point-major
// geom.Point view used when emitting results — and the root MBR.
//
// The caller owns the backing buffer's lifetime: it must stay alive and
// unmodified until the returned arena is unreachable or closed one
// layer up.
func PackedFromSnapshotBorrowed(st *snapshot.Tree, dim int, cfg Config, verify func() error) (*Packed, error) {
	cfg, err := snapshotConfig(st, dim, cfg)
	if err != nil {
		return nil, err
	}
	// pagestore.PageID is int64 under a different name, so the page
	// column is adopted in place rather than copied like
	// PackedFromSnapshot does. The page count is the writer-declared
	// range — verify confirms every node page lies inside it.
	var pages []pagestore.PageID
	if len(st.Page) > 0 {
		pages = unsafe.Slice((*pagestore.PageID)(unsafe.Pointer(unsafe.SliceData(st.Page))), len(st.Page))
	}
	p := adoptArena(st, cfg, pages, st.Pages)
	p.prep = &packedPrep{fn: func() error {
		if err := verify(); err != nil {
			return err
		}
		p.pts = pointView(st.PointCols, dim, len(st.IDs))
		p.mbr = p.rootMBR()
		return nil
	}}
	return p, nil
}
