package passhash

import (
	"crypto/sha256"
	"encoding"
	"hash"
)

// blockSize is SHA-256's block size in bytes.
const blockSize = sha256.BlockSize

// iv is SHA-256's initial hash value (FIPS 180-4 §5.3.3).
var iv = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// stdHash is what compressGeneric uses of crypto/sha256's hash, which
// documents that it implements both encoding interfaces.
type stdHash interface {
	hash.Hash
	encoding.BinaryUnmarshaler
	encoding.BinaryAppender
}

// stdWords is the offset of the hash words, big-endian, in
// crypto/sha256's marshalled state: a 4-byte magic comes first.
const stdWords = 4

// stdDigest is crypto/sha256's hash with the HMAC pad states in its
// marshalled form, for compressGeneric.
type stdDigest struct {
	d    stdHash
	pads [2][]byte // marshalled states after the ipad and opad blocks
	out  []byte    // marshalled state after a compressGeneric call
}

func newStdDigest() *stdDigest {
	return &stdDigest{d: sha256.New().(stdHash)}
}

// setPad records the marshalled state after the pad block.
func (s *stdDigest) setPad(pad int, block []byte) {
	s.d.Reset()
	_, _ = s.d.Write(block) // a hash's Write never fails
	s.pads[pad], _ = s.d.AppendBinary(s.pads[pad][:0])
}

// compressGeneric is the Hasher's half for every CPU without the
// SHA-NI kernel. It runs crypto/sha256's own block function (SHA-NI
// or AVX2 on amd64, the SHA2 instructions on arm64, portable Go
// elsewhere) from a pad state over whole blocks and writes the
// resulting digest over the first 32 bytes of blk. The pad states
// count a whole block and buffer nothing, so the digest hands the
// blocks straight to its block function, and the hash words come back
// big-endian, as the digest's bytes, from its marshalled state.
func compressGeneric(s *stdDigest, pad int, blocks []byte, blk *[blockSize]byte) {
	if err := s.d.UnmarshalBinary(s.pads[pad]); err != nil {
		panic("passhash: crypto/sha256 rejected its own state: " + err.Error())
	}
	// Neither call can fail: a hash's Write never does, and
	// crypto/sha256's AppendBinary only appends.
	_, _ = s.d.Write(blocks)
	s.out, _ = s.d.AppendBinary(s.out[:0])
	copy(blk[:Size], s.out[stdWords:])
}
