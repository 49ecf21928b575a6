package las

// DecodeRecord parses one raw point record under the header's format and
// quantisation. It is exported for consumers that perform partial file
// reads (the lasindex-style sidecar path) and must decode records they
// seeked to themselves.
func DecodeRecord(rec []byte, h Header) Point { return decodePoint(rec, h) }
