package suite

import "crypto/sha256"

// VerifyItem is one (key, message, signature) tuple of a batch.
type VerifyItem struct {
	Key PublicKey
	Msg []byte
	Sig []byte
}

// BatchVerify reports whether every item in the batch verifies. Exact
// duplicates (same key bytes, message, signature) are verified once, and the
// batch aborts on the first failure, so callers should order items
// cheapest-reject-first when they can. An empty batch verifies trivially.
//
// Verification is semantically identical to calling Key.Verify(Msg, Sig) on
// every item — batching changes cost, never outcome.
func BatchVerify(items []VerifyItem) bool {
	switch len(items) {
	case 0:
		return true
	case 1:
		return items[0].Key.Verify(items[0].Msg, items[0].Sig)
	}
	seen := make(map[[32]byte]bool, len(items))
	for i := range items {
		it := &items[i]
		d := verifyDigest(it.Key, it.Msg, it.Sig)
		if seen[d] {
			continue
		}
		if !it.Key.Verify(it.Msg, it.Sig) {
			return false
		}
		seen[d] = true
	}
	return true
}

// verifyDigest keys a verification by its exact inputs. Length prefixes make
// the concatenation unambiguous.
func verifyDigest(key PublicKey, msg, sig []byte) [32]byte {
	h := sha256.New()
	var n [8]byte
	for _, part := range [][]byte{key.bytes, msg, sig} {
		n[0] = byte(len(part) >> 24)
		n[1] = byte(len(part) >> 16)
		n[2] = byte(len(part) >> 8)
		n[3] = byte(len(part))
		h.Write(n[:4])
		h.Write(part)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
