package wire

// FirstPacket returns the first packet offset of node id, or -1 when the
// node is not placed.
func (l *Layout) FirstPacket(id int) int {
	pk := l.PacketsOf(id)
	if len(pk) == 0 {
		return -1
	}
	return int(pk[0])
}
