package voronoi

import (
	"fmt"

	"airindex/internal/geom"
)

// Cell returns the current valid scope of site id.
func (m *Maintainer) Cell(id int) (geom.Polygon, error) {
	if id < 0 || id >= len(m.sites) || !m.alive[id] {
		return nil, fmt.Errorf("voronoi: no live site %d", id)
	}
	return m.cells[id].Clone(), nil
}
