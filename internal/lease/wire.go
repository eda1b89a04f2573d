package lease

import (
	"origami/internal/namespace"
	"origami/internal/rpc"
)

// Grant trailers ride at the tail of ordinary response bodies:
// U32 count, then (U64 dir, U64 id, U64 epoch, U32 ttl-ms, U64 map
// version) per grant.
// Decoders written before the trailer existed ignore trailing bytes,
// so appending it is wire-compatible in both directions: an old client
// skips it, and a missing trailer decodes as no grants.

// AppendGrants writes the grant trailer onto w.
func AppendGrants(w *rpc.Wire, grants []Grant) {
	w.Grow(4 + len(grants)*36)
	w.U32(uint32(len(grants)))
	for _, g := range grants {
		w.U64(uint64(g.Dir)).U64(g.ID).U64(g.Epoch).U32(g.TTLms).U64(g.MapVersion)
	}
}

// DecodeGrants reads a grant trailer from r's current position. A
// response with no trailer (or one from an error path) yields nil.
func DecodeGrants(r *rpc.Reader) []Grant {
	if r.Err() != nil || r.Remaining() == 0 {
		return nil
	}
	n := int(r.U32())
	if r.Err() != nil || n > 4096 {
		return nil
	}
	grants := make([]Grant, 0, n)
	for i := 0; i < n; i++ {
		g := Grant{}
		g.Dir = namespace.Ino(r.U64())
		g.ID = r.U64()
		g.Epoch = r.U64()
		g.TTLms = r.U32()
		g.MapVersion = r.U64()
		grants = append(grants, g)
	}
	if r.Err() != nil {
		return nil
	}
	return grants
}
