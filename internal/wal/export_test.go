package wal

// SetChunkRecords makes replay chunks hold n records past the segment
// header, so a test's small segments span many chunks, and returns the
// function that puts the size back. Tests only: the size is a constant
// of the replay, not an option.
func SetChunkRecords(n int) (restore func()) {
	old := chunkRecords
	chunkRecords = n
	return func() { chunkRecords = old }
}
