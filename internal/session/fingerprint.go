package session

import (
	"repro/internal/schema"
	"repro/internal/structure"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	h ^= uint64(len(s)) // length marker: separates adjacent strings
	h *= fnvPrime64
	return h
}

func fnvInt(h uint64, v int) uint64 {
	h ^= uint64(v)
	h *= fnvPrime64
	return h
}

// Fingerprint hashes a structure's content into a 64-bit digest: its
// element names in order, then each predicate of the signature, empty
// ones too, with its tuple set. A relation is a set (Sec. 2.2), so its
// tuples are folded in as a sum of mixed per-tuple hashes, the
// order-independent multiset hash of Clarke et al. (ASIACRYPT 2003): the
// order edits left the tuples stored in does not change it. It is a
// change detector, not an equality proof (collisions are astronomically
// unlikely but possible).
func Fingerprint(st *structure.Structure) uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, st.Size())
	for i := 0; i < st.Size(); i++ {
		h = fnvString(h, st.Name(i))
	}
	for pi, p := range st.Sig().Predicates() {
		h = fnvString(h, p.Name)
		h = fnvInt(h, p.Arity)
		var sum uint64
		for _, t := range st.TuplesIdx(pi) {
			th := uint64(fnvOffset64)
			for _, e := range t {
				th = fnvInt(th, e)
			}
			sum += mix64(th)
		}
		h = fnvInt(h, int(sum))
	}
	return h
}

// mix64 is the SplitMix64 finalizer. It spreads each tuple's hash over
// the whole word before the hashes are summed.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// SchemaFingerprint hashes a relational schema (attributes and
// functional dependencies) the same way.
func SchemaFingerprint(s *schema.Schema) uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, s.NumAttrs())
	for i := 0; i < s.NumAttrs(); i++ {
		h = fnvString(h, s.AttrName(i))
	}
	for _, fd := range s.FDs() {
		h = fnvString(h, fd.Name)
		for _, a := range fd.LHS {
			h = fnvInt(h, a)
		}
		h = fnvInt(h, -1)
		h = fnvInt(h, fd.RHS)
	}
	return h
}
