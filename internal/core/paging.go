package core

import (
	"fmt"

	"airindex/internal/wire"
)

// Paged is a D-tree allocated into fixed-size packets with the paper's
// top-down paging (Algorithm 3).
type Paged struct {
	Tree   *Tree
	Params wire.Params
	Layout *wire.Layout
}

// Page allocates the tree's nodes into packets. Nodes are placed in
// breadth-first order: a node shares its parent's packet when it fits, and
// leaf-level packets are greedily merged afterwards.
func (t *Tree) Page(params wire.Params) (*Paged, error) { return t.page(params, wire.TopDown) }

// PageGreedy allocates the tree's nodes into packets sequentially in
// breadth-first order without the parent-affinity placement and leaf
// merging of Algorithm 3. It exists for the paging ablation in DESIGN.md.
func (t *Tree) PageGreedy(params wire.Params) (*Paged, error) { return t.page(params, wire.Greedy) }

// page lays the breadth-first node specs out with a wire pager.
func (t *Tree) page(params wire.Params, place func([]wire.NodeSpec, int) (*wire.Layout, error)) (*Paged, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if t.Root == nil {
		return &Paged{Tree: t, Params: params, Layout: wire.EmptyLayout(params.PacketCapacity)}, nil
	}
	specs := make([]wire.NodeSpec, 0, len(t.Nodes))
	parentOf := make([]int, len(t.Nodes))
	parentOf[t.Root.ID] = -1
	for _, n := range t.Nodes { // already breadth-first
		var children []int
		for _, c := range []ChildRef{n.Left, n.Right} {
			if !c.IsData() {
				children = append(children, c.Node.ID)
				parentOf[c.Node.ID] = n.ID
			}
		}
		specs = append(specs, wire.NodeSpec{
			ID:       n.ID,
			Size:     NodeSize(n, params),
			Parent:   parentOf[n.ID],
			Children: children,
			Leaf:     len(children) == 0,
		})
	}
	layout, err := place(specs, params.PacketCapacity)
	if err != nil {
		return nil, err
	}
	if err := layout.Validate(specs); err != nil {
		return nil, fmt.Errorf("core: paging produced invalid layout: %w", err)
	}
	return &Paged{Tree: t, Params: params, Layout: layout}, nil
}

// IndexPackets returns the size of the paged index in packets.
func (pg *Paged) IndexPackets() int { return pg.Layout.PacketCount }
