package rtree

import "gnn/internal/geom"

// CountExact returns how many indexed entries match the point and id
// exactly. It charges no node accesses — it is bookkeeping for the
// delete-tombstone overlay (which must know a base point's
// multiplicity), not a simulated disk traversal, so per-query cost
// accounting is unaffected. The walk prunes by MBR containment. Borrowed
// arenas must have been Prepared so the point views exist.
func (p *Packed) CountExact(pt geom.Point, id int64) int {
	if p == nil || p.size == 0 || len(pt) != p.cfg.Dim {
		return 0
	}
	return p.countExactNode(p.root, pt, id)
}

func (p *Packed) countExactNode(n int32, pt geom.Point, id int64) int {
	s, e := p.start[n], p.end[n]
	c := 0
	if p.level[n] == 0 {
		for i := s; i < e; i++ {
			if p.ids[i] == id && p.pts[i].Equal(pt) {
				c++
			}
		}
		return c
	}
	for i := s; i < e; i++ {
		inside := true
		for ax := 0; ax < p.cfg.Dim; ax++ {
			if pt[ax] < p.rlo[ax][i] || pt[ax] > p.rhi[ax][i] {
				inside = false
				break
			}
		}
		if inside {
			c += p.countExactNode(p.child[i], pt, id)
		}
	}
	return c
}
