// Package passhash turns discretized click-point sequences into stored
// password verifiers.
//
// Following the paper (§3.1–3.2), the clear-text grid identifiers
// (offsets d, or the Robust grid index) and the secret segment indices
// of all click-points are concatenated and hashed together as one —
// never per click-point — so an attacker cannot match individual points
// and mount a divide-and-conquer attack. A per-user salt defeats
// precomputed dictionaries and iterated hashing (h^n) adds log2(n) bits
// of work per guess (§5.1: h^1000 ≈ +10 bits).
package passhash

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math"

	"clickpass/internal/core"
)

// Size is the length of a verifier in bytes.
const Size = sha256.Size

// SaltLen is the per-user salt length in bytes.
const SaltLen = 16

// DefaultIterations is the default hash iteration count; the paper
// suggests 1000 (≈ 10 bits of added attack cost).
const DefaultIterations = 1000

// Params fixes how verifiers are computed. The zero value is invalid;
// use NewParams or fill every field.
type Params struct {
	// Iterations is the hash iteration count, >= 1.
	Iterations int
	// Salt is the per-user salt.
	Salt []byte
}

// NewParams draws a fresh random salt from crypto/rand.
func NewParams(iterations int) (Params, error) {
	if iterations < 1 {
		return Params{}, fmt.Errorf("passhash: iterations %d < 1", iterations)
	}
	salt := make([]byte, SaltLen)
	if _, err := rand.Read(salt); err != nil {
		return Params{}, fmt.Errorf("passhash: reading salt: %w", err)
	}
	return Params{Iterations: iterations, Salt: salt}, nil
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Iterations < 1 {
		return fmt.Errorf("passhash: iterations %d < 1", p.Iterations)
	}
	if len(p.Salt) == 0 {
		return fmt.Errorf("passhash: empty salt")
	}
	return nil
}

// AppendTokens appends the canonical byte encoding of a password's
// tokens to dst and returns the extended slice: for each click-point
// in order, the clear part (dx, dy, grid) followed by the secret part
// (ix, iy), all fixed-width big-endian. The encoding is injective so
// distinct discretizations never collide before hashing.
func AppendTokens(dst []byte, tokens []core.Token) []byte {
	var scratch [8]byte
	putI64 := func(v int64) {
		binary.BigEndian.PutUint64(scratch[:], uint64(v))
		dst = append(dst, scratch[:]...)
	}
	// Length prefix guards against ambiguity between different click
	// counts (defense in depth; the fixed width already prevents it).
	binary.BigEndian.PutUint16(scratch[:2], uint16(len(tokens)))
	dst = append(dst, scratch[:2]...)
	for _, t := range tokens {
		putI64(int64(t.Clear.DX))
		putI64(int64(t.Clear.DY))
		dst = append(dst, t.Clear.Grid)
		putI64(t.Secret.IX)
		putI64(t.Secret.IY)
	}
	return dst
}

// encodedLen is the length of the canonical encoding of n tokens: a
// 2-byte count, then 33 bytes per click-point.
func encodedLen(n int) int {
	return 2 + n*(8+8+1+8+8)
}

// EncodeTokens returns the canonical byte encoding in a fresh buffer.
func EncodeTokens(tokens []core.Token) []byte {
	return AppendTokens(make([]byte, 0, encodedLen(len(tokens))), tokens)
}

// Hasher computes verifiers for one Params in bulk: verify loops and
// offline attack engines hash millions of candidates under a single
// salt. The salt's HMAC pad blocks are compressed once, at NewHasher,
// and the encode and digest buffers are reused, so the steady state
// is exactly two SHA-256 compressions per iteration and no
// allocations. Not safe for concurrent use; create one per goroutine.
type Hasher struct {
	iterations int
	// pads are the SHA-256 states after the salt's ipad and opad
	// blocks (indexed by inner and outer): every HMAC in the chain
	// starts from one of them.
	pads [2][8]uint32
	// std is non-nil when this CPU lacks the SHA-NI kernel. It then
	// holds the pads itself and every block goes through
	// compressGeneric.
	std *stdDigest
	// blk is the one-block message of iterations 2..n and of every
	// outer hash: a 32-byte digest, then fixed SHA-256 padding for a
	// 96-byte message (one pad block plus the digest). Only the first
	// 32 bytes are ever rewritten.
	blk [blockSize]byte
	buf []byte // padded canonical encoding, reused
	sum []byte // digest scratch for Verify
}

// Indices of Hasher.pads.
const (
	inner = iota
	outer
)

// NewHasher validates the parameters and compresses the salt's HMAC
// pad blocks.
func NewHasher(p Params) (*Hasher, error) {
	return newHasher(p, useSHANI)
}

// newHasher is NewHasher with the compress path chosen by the caller;
// kernel may be true only when useSHANI is.
func newHasher(p Params, kernel bool) (*Hasher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	h := &Hasher{iterations: p.Iterations}
	if !kernel {
		h.std = newStdDigest()
	}
	// HMAC key block: a salt longer than a block is hashed first
	// (RFC 2104). blk doubles as the pad scratch before it takes its
	// fixed form.
	if len(p.Salt) > blockSize {
		sum := sha256.Sum256(p.Salt)
		copy(h.blk[:], sum[:])
	} else {
		copy(h.blk[:], p.Salt)
	}
	for i := range h.blk {
		h.blk[i] ^= 0x36
	}
	h.setPad(inner)
	for i := range h.blk {
		h.blk[i] ^= 0x36 ^ 0x5c
	}
	h.setPad(outer)
	h.blk = [blockSize]byte{Size: 0x80}
	binary.BigEndian.PutUint64(h.blk[blockSize-8:], (blockSize+Size)*8)
	return h, nil
}

// setPad records the SHA-256 state after the pad block in blk.
func (h *Hasher) setPad(pad int) {
	if h.std != nil {
		h.std.setPad(pad, h.blk[:])
		return
	}
	h.pads[pad] = iv
	compress(&h.pads[pad], h.blk[:])
}

// half runs blocks through SHA-256 from one pad state and writes the
// resulting digest over the first 32 bytes of blk.
func (h *Hasher) half(pad int, blocks []byte) {
	if h.std != nil {
		compressGeneric(h.std, pad, blocks, &h.blk)
		return
	}
	st := h.pads[pad]
	compress(&st, blocks)
	for i, v := range st {
		binary.BigEndian.PutUint32(h.blk[4*i:], v)
	}
}

// DigestInto appends the verifier for tokens to dst and returns the
// extended slice. Once the Hasher has seen a token list this long,
// and with a dst of sufficient capacity (Size beyond len(dst)), it
// performs no heap allocations.
func (h *Hasher) DigestInto(dst []byte, tokens []core.Token) []byte {
	// Room for the encoding and its padding, so that a cold buffer
	// grows once.
	if need := encodedLen(len(tokens)) + 1 + 8 + blockSize; cap(h.buf) < need {
		h.buf = make([]byte, 0, need)
	}
	h.buf = AppendTokens(h.buf[:0], tokens)
	return h.chain(dst)
}

// chain appends the iterated HMAC of the message in h.buf to dst,
// padding h.buf in place.
func (h *Hasher) chain(dst []byte) []byte {
	// Iteration 1's inner hash: the message continues the ipad block,
	// so its SHA-256 padding counts 64 bytes more.
	msg := h.buf
	n := len(msg)
	padded := (n + 1 + 8 + blockSize - 1) &^ (blockSize - 1)
	msg = append(msg, make([]byte, padded-n)...)
	msg[n] = 0x80
	binary.BigEndian.PutUint64(msg[padded-8:], uint64(blockSize+n)*8)
	h.buf = msg
	h.half(inner, msg)
	for i := 1; ; i++ {
		h.half(outer, h.blk[:])
		if i == h.iterations {
			break
		}
		h.half(inner, h.blk[:])
	}
	return append(dst, h.blk[:Size]...)
}

// Verify recomputes the digest for candidate tokens and compares it to
// the stored verifier in constant time, reusing the Hasher's scratch.
func (h *Hasher) Verify(stored []byte, tokens []core.Token) bool {
	h.sum = h.DigestInto(h.sum[:0], tokens)
	return subtle.ConstantTimeCompare(stored, h.sum) == 1
}

// Digest computes the stored verifier for a token sequence under the
// given parameters: iterations of HMAC-SHA256 keyed by the salt over
// the canonical encoding. HMAC (rather than plain concatenation) binds
// the salt without length-extension concerns. One-shot wrapper around
// Hasher.DigestInto.
func Digest(p Params, tokens []core.Token) ([]byte, error) {
	h, err := NewHasher(p)
	if err != nil {
		return nil, err
	}
	return h.DigestInto(nil, tokens), nil
}

// Verify recomputes the digest for candidate tokens and compares it to
// the stored verifier in constant time.
func Verify(p Params, stored []byte, tokens []core.Token) (bool, error) {
	h, err := NewHasher(p)
	if err != nil {
		return false, err
	}
	return h.Verify(stored, tokens), nil
}

// AddedBits returns the attack-cost increase from iterated hashing in
// bits: log2(iterations). The paper's example: 1000 iterations add
// about 10 bits.
func AddedBits(iterations int) float64 {
	if iterations < 1 {
		return 0
	}
	return math.Log2(float64(iterations))
}
