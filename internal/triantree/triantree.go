package triantree

import (
	"fmt"
	"math"
	"sort"

	"airindex/internal/geom"
	"airindex/internal/region"
)

// Node is one triangle of the hierarchy. Base nodes (Level 0) carry the
// region whose triangulation produced them; the synthetic root carries no
// triangle and fans out to the coarsest layer.
type Node struct {
	ID       int
	Tri      geom.Triangle
	Children []*Node
	Region   int // region id for base triangles, -1 otherwise
	Level    int // 0 for base triangles; increases toward the root
	IsRoot   bool
}

// Tree is the built trian-tree (a DAG, despite the name the paper uses).
type Tree struct {
	Root *Node
	Sub  *region.Subdivision
	// Nodes in breadth-first order from the root; Nodes[i].ID == i.
	Nodes []*Node
}

// Build constructs Kirkpatrick's hierarchy over the subdivision.
func Build(sub *region.Subdivision) (*Tree, error) {
	tg := newTriangulation(sub.Verts)
	for _, c := range sub.Area.Corners() {
		// Corners are canonical subdivision vertices (each belongs to some
		// region ring); mark them unremovable.
		for i, v := range sub.Verts {
			if v.Eq(c) {
				tg.corner[i] = true
			}
		}
	}

	vertID := make(map[geom.Point]int, len(sub.Verts))
	for i, p := range sub.Verts {
		vertID[p] = i
	}

	// Level 0: triangulate every region.
	nextLevel := 0
	for rid := range sub.Regions {
		tris := geom.Triangulate(sub.Regions[rid].Poly)
		if len(tris) == 0 {
			return nil, fmt.Errorf("triantree: region %d failed to triangulate", rid)
		}
		for _, tr := range tris {
			ids, err := triVertexIDs(tr, vertID)
			if err != nil {
				return nil, fmt.Errorf("triantree: region %d: %w", rid, err)
			}
			lt := &liveTri{v: ids, node: &Node{Tri: tr, Region: rid, Level: 0}}
			tg.add(lt)
		}
	}

	// Coarsening rounds: remove an independent set of low-degree vertices
	// and re-triangulate their stars.
	for len(tg.live) > DefaultTMin {
		removable := tg.independentRemovableSet()
		if len(removable) == 0 {
			break
		}
		nextLevel++
		progress := false
		for _, v := range removable {
			if err := tg.removeVertex(v, nextLevel); err != nil {
				return nil, err
			}
			progress = true
			if len(tg.live) <= DefaultTMin {
				break
			}
		}
		if !progress {
			break
		}
	}

	// Synthetic root over the remaining coarse triangles.
	final := make([]*Node, 0, len(tg.live))
	for lt := range tg.live {
		final = append(final, lt.node)
	}
	sort.Slice(final, func(i, j int) bool {
		ci, cj := final[i].Tri.Centroid(), final[j].Tri.Centroid()
		if ci.X != cj.X {
			return ci.X < cj.X
		}
		return ci.Y < cj.Y
	})
	root := &Node{Region: -1, Level: nextLevel + 1, IsRoot: true, Children: final}
	t := &Tree{Root: root, Sub: sub}
	t.assignIDs()
	return t, nil
}

// removeVertex deletes v, re-triangulates the hole left by its star, and
// links each new triangle to the old star triangles it overlaps.
func (tg *triangulation) removeVertex(v, level int) error {
	chain, closed, err := tg.linkChain(v)
	if err != nil {
		return err
	}
	old := make([]*liveTri, 0, len(tg.incident[v]))
	for t := range tg.incident[v] {
		old = append(old, t)
	}
	// Deterministic order (map iteration above is not): by vertex ids.
	sort.Slice(old, func(i, j int) bool {
		a, b := old[i].v, old[j].v
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})

	hole := make(geom.Polygon, len(chain))
	for i, u := range chain {
		hole[i] = tg.verts[u]
	}
	_ = closed // the hole ring is the chain either way; for boundary vertices the closing edge runs along the straight border through v
	holeIDs := make(map[geom.Point]int, len(chain))
	for _, u := range chain {
		holeIDs[tg.verts[u]] = u
	}
	newTris := geom.Triangulate(hole)
	if len(newTris) == 0 {
		return fmt.Errorf("triantree: star of vertex %d failed to re-triangulate", v)
	}
	for _, t := range old {
		tg.remove(t)
	}
	for _, tr := range newTris {
		ids, err := triVertexIDs(tr, holeIDs)
		if err != nil {
			return fmt.Errorf("triantree: re-triangulation introduced a vertex: %w", err)
		}
		node := &Node{Tri: tr, Region: -1, Level: level}
		for _, o := range old {
			if tr.OverlapsInterior(o.node.Tri) {
				node.Children = append(node.Children, o.node)
			}
		}
		if len(node.Children) == 0 {
			return fmt.Errorf("triantree: new triangle %v overlaps no old triangle", tr)
		}
		tg.add(&liveTri{v: ids, node: node})
	}
	return nil
}

func triVertexIDs(tr geom.Triangle, ids map[geom.Point]int) ([3]int, error) {
	var out [3]int
	for i, p := range tr.Vertices() {
		id, ok := ids[p]
		if !ok {
			return out, fmt.Errorf("unknown vertex %v", p)
		}
		out[i] = id
	}
	return out, nil
}

// assignIDs numbers nodes breadth-first from the root (the broadcast order),
// visiting shared DAG nodes once.
func (t *Tree) assignIDs() {
	t.Nodes = t.Nodes[:0]
	seen := map[*Node]bool{t.Root: true}
	queue := []*Node{t.Root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		n.ID = len(t.Nodes)
		t.Nodes = append(t.Nodes, n)
		for _, c := range n.Children {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
}

// bestChild returns the first child containing p, or, when rounding places
// p marginally outside every child, the child whose triangle p is least
// outside of.
func bestChild(n *Node, p geom.Point) *Node {
	for _, c := range n.Children {
		if c.Tri.Contains(p) {
			return c
		}
	}
	// Slack is only consulted when no child contains p exactly, so the
	// normalized-orientation pass stays off the common descent path.
	var fallback *Node
	worstSlack := math.Inf(-1)
	for _, c := range n.Children {
		if s := containmentSlack(c.Tri, p); s > worstSlack {
			worstSlack, fallback = s, c
		}
	}
	if worstSlack > -1e-6 {
		return fallback
	}
	return nil
}

// containmentSlack is the minimum signed orientation of p against the
// triangle's edges (normalized); non-negative inside.
func containmentSlack(tr geom.Triangle, p geom.Point) float64 {
	v := tr.Vertices()
	slack := math.Inf(1)
	for i := 0; i < 3; i++ {
		a, b := v[i], v[(i+1)%3]
		d := geom.Orient(a, b, p) / (a.Dist(b) + geom.Eps)
		if d < slack {
			slack = d
		}
	}
	return slack
}
