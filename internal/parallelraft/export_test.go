package parallelraft

import "polardb/internal/wire"

// roundTripEntry marshals e and unmarshals it into out, for tests.
func roundTripEntry(e, out *Entry) {
	w := wire.NewWriter(256)
	e.marshal(w)
	out.unmarshal(wire.NewReader(w.Bytes()))
}

// logSpan reports how many entries the replica retains and the lowest
// index among them (0 when the log is empty), for the truncation tests.
func (r *Replica) logSpan() (n int, lowest uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.log {
		if lowest == 0 || i < lowest {
			lowest = i
		}
	}
	return len(r.log), lowest
}
