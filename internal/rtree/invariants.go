package rtree

import (
	"fmt"

	"gnn/internal/geom"
)

// CheckInvariants validates the structural invariants of the tree and
// returns the first violation found, or nil. It is exported for tests and
// diagnostic tooling; it does not charge node accesses.
//
// Checked invariants:
//  1. every node except the root holds between MinEntries and MaxEntries
//     entries; the root holds at most MaxEntries (and, unless it is a leaf,
//     at least 2);
//  2. each routing rectangle equals the exact MBR of its child's entries;
//  3. all leaves sit at level 0 and node levels decrease by 1 per step;
//  4. the recorded size matches the number of data entries;
//  5. the recorded height matches the root's level + 1;
//  6. every data point lies inside all its ancestors' rectangles.
func (t *Tree) CheckInvariants() error {
	if t.height != t.root.level+1 {
		return fmt.Errorf("rtree: height %d but root level %d", t.height, t.root.level)
	}
	count, err := t.checkNode(t.root, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d data entries found", t.size, count)
	}
	return nil
}

func (t *Tree) checkNode(n *node, isRoot bool) (int, error) {
	if len(n.entries) > t.cfg.MaxEntries {
		return 0, fmt.Errorf("rtree: node %d overflows with %d entries", n.page, len(n.entries))
	}
	if isRoot {
		if n.level > 0 && len(n.entries) < 2 {
			return 0, fmt.Errorf("rtree: internal root with %d entries", len(n.entries))
		}
	} else if len(n.entries) < t.cfg.MinEntries {
		return 0, fmt.Errorf("rtree: node %d underflows with %d entries (min %d)",
			n.page, len(n.entries), t.cfg.MinEntries)
	}
	count := 0
	for i, e := range n.entries {
		if n.level == 0 {
			if !e.IsLeafEntry() {
				return 0, fmt.Errorf("rtree: routing entry %d in leaf %d", i, n.page)
			}
			if !e.Rect.Equal(geom.RectFromPoint(e.Point)) {
				return 0, fmt.Errorf("rtree: leaf entry %d rect does not match point", i)
			}
			count++
			continue
		}
		if e.IsLeafEntry() {
			return 0, fmt.Errorf("rtree: data entry %d in internal node %d", i, n.page)
		}
		if e.child.level != n.level-1 {
			return 0, fmt.Errorf("rtree: node %d at level %d has child at level %d",
				n.page, n.level, e.child.level)
		}
		if len(e.child.entries) == 0 {
			return 0, fmt.Errorf("rtree: empty child node %d", e.child.page)
		}
		if want := t.nodeMBR(e.child); !e.Rect.Equal(want) {
			return 0, fmt.Errorf("rtree: routing rect %v of node %d != child MBR %v",
				e.Rect, n.page, want)
		}
		c, err := t.checkNode(e.child, false)
		if err != nil {
			return 0, err
		}
		count += c
	}
	return count, nil
}

// CheckInvariants validates the arena against the same invariants as
// Tree.CheckInvariants — fill bounds, exact routing rectangles, level
// steps, size and height — and returns the first violation found, or
// nil. A borrowed arena is Prepared first, which runs its checksum and
// structural validation. It does not charge node accesses.
func (p *Packed) CheckInvariants() error {
	if err := p.Prepare(); err != nil {
		return err
	}
	if int(p.level[p.root])+1 != p.height {
		return fmt.Errorf("rtree: height %d but root level %d", p.height, p.level[p.root])
	}
	count, err := p.checkNode(p.root, true)
	if err != nil {
		return err
	}
	if count != p.size {
		return fmt.Errorf("rtree: size %d but %d data entries found", p.size, count)
	}
	return nil
}

func (p *Packed) checkNode(n int32, isRoot bool) (int, error) {
	s, e := p.start[n], p.end[n]
	cnt := int(e - s)
	switch {
	case cnt > p.cfg.MaxEntries:
		return 0, fmt.Errorf("rtree: node %d overflows with %d entries", p.page[n], cnt)
	case isRoot && p.level[n] > 0 && cnt < 2:
		return 0, fmt.Errorf("rtree: internal root with %d entries", cnt)
	case !isRoot && cnt < p.cfg.MinEntries:
		return 0, fmt.Errorf("rtree: node %d underflows with %d entries (min %d)",
			p.page[n], cnt, p.cfg.MinEntries)
	}
	if p.level[n] == 0 {
		return cnt, nil
	}
	count := 0
	for i := s; i < e; i++ {
		c := p.child[i]
		if p.level[c] != p.level[n]-1 {
			return 0, fmt.Errorf("rtree: node %d at level %d has child at level %d",
				p.page[n], p.level[n], p.level[c])
		}
		cs, ce := p.start[c], p.end[c]
		if cs >= ce {
			return 0, fmt.Errorf("rtree: empty child node %d", p.page[c])
		}
		clo, chi := p.rlo, p.rhi
		if p.level[c] == 0 {
			clo, chi = p.pc, p.pc
		}
		for a := 0; a < p.cfg.Dim; a++ {
			lo, hi := clo[a][cs], chi[a][cs]
			for j := cs + 1; j < ce; j++ {
				lo, hi = min(lo, clo[a][j]), max(hi, chi[a][j])
			}
			if lo != p.rlo[a][i] || hi != p.rhi[a][i] {
				return 0, fmt.Errorf("rtree: routing slot %d of node %d is not its child's MBR on axis %d",
					i, p.page[n], a)
			}
		}
		k, err := p.checkNode(c, false)
		if err != nil {
			return 0, err
		}
		count += k
	}
	return count, nil
}

// Stats summarises the tree shape for diagnostics and EXPERIMENTS.md.
type Stats struct {
	Size       int
	Height     int
	Nodes      int
	Leaves     int
	AvgFill    float64 // mean entries per node / MaxEntries
	LeafArea   float64 // total area of leaf MBRs (overlap indicator)
	MaxEntries int
}

// ComputeStats walks the tree (without charging accesses) and returns
// shape statistics.
func (t *Tree) ComputeStats() Stats {
	s := Stats{Size: t.size, Height: t.height, MaxEntries: t.cfg.MaxEntries}
	var fillSum float64
	var walk func(n *node)
	walk = func(n *node) {
		s.Nodes++
		fillSum += float64(len(n.entries))
		if n.level == 0 {
			s.Leaves++
			if len(n.entries) > 0 {
				s.LeafArea += t.nodeMBR(n).Area()
			}
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	if s.Nodes > 0 {
		s.AvgFill = fillSum / float64(s.Nodes) / float64(t.cfg.MaxEntries)
	}
	return s
}
