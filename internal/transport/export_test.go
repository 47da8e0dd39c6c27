package transport

// The frame codec, for the external fuzz test that seeds it from a job.
var (
	ReadBatch  = readBatch
	WriteBatch = writeBatch
)
