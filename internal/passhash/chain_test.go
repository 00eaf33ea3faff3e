package passhash

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"clickpass/internal/core"
)

// refChain is the verifier construction spelled out with crypto/hmac:
// HMAC-SHA256 keyed by the salt over msg, then over each previous
// digest, iters times in all.
func refChain(salt, msg []byte, iters int) []byte {
	mac := hmac.New(sha256.New, salt)
	mac.Write(msg)
	d := mac.Sum(nil)
	for i := 1; i < iters; i++ {
		mac.Reset()
		mac.Write(d)
		d = mac.Sum(d[:0])
	}
	return d
}

// compressPath names one way a Hasher compresses blocks.
type compressPath struct {
	name   string
	kernel bool
}

// compressPaths lists the paths this machine can run: the generic one
// always, the SHA-NI kernel when the CPU has it.
func compressPaths() []compressPath {
	paths := []compressPath{{"generic", false}}
	if useSHANI {
		paths = append(paths, compressPath{"kernel", true})
	}
	return paths
}

// chainOf runs msg through a Hasher on the given path.
func chainOf(t testing.TB, path compressPath, salt, msg []byte, iters int) []byte {
	t.Helper()
	h, err := newHasher(Params{Iterations: iters, Salt: salt}, path.kernel)
	if err != nil {
		t.Fatal(err)
	}
	h.buf = append(h.buf[:0], msg...)
	return h.chain(nil)
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// TestChainMatchesHMAC: both compress paths must reproduce the
// crypto/hmac chain across every padding boundary of the key (salts
// shorter than, equal to and longer than a block) and of the first
// message (the inner hash continues a 64-byte pad block, so 55/56 and
// 119/120 straddle a one-block and two-block tail).
func TestChainMatchesHMAC(t *testing.T) {
	if useSHANI {
		t.Log("compress path selected on this machine: SHA-NI kernel")
	} else {
		t.Log("compress path selected on this machine: crypto/sha256 (generic)")
	}
	salts := []int{1, 16, 63, 64, 65, 200}
	// 167 is the canonical encoding of five tokens.
	msgs := []int{0, 1, 55, 56, 63, 64, 119, 120, 167, 177}
	iterations := []int{1, 2, 3, 1000}
	for _, path := range compressPaths() {
		t.Run(path.name, func(t *testing.T) {
			for _, sl := range salts {
				for _, ml := range msgs {
					for _, iters := range iterations {
						salt, msg := pattern(sl, 1), pattern(ml, 101)
						want := refChain(salt, msg, iters)
						if got := chainOf(t, path, salt, msg, iters); !bytes.Equal(got, want) {
							t.Errorf("salt %d, msg %d, iters %d: got %x, want %x", sl, ml, iters, got, want)
						}
					}
				}
			}
		})
	}
}

// TestCompressBlocks: the SHA-NI kernel, run from the initial hash
// value over a padded multi-block message, is SHA-256.
func TestCompressBlocks(t *testing.T) {
	if !useSHANI {
		t.Skip("no SHA-NI kernel on this CPU")
	}
	msg := pattern(3*blockSize, 9)
	n := len(msg)
	padded := append(msg, make([]byte, blockSize)...)
	padded[n] = 0x80
	binary.BigEndian.PutUint64(padded[len(padded)-8:], uint64(n)*8)
	st := iv
	compress(&st, padded)
	var got []byte
	for _, v := range st {
		got = binary.BigEndian.AppendUint32(got, v)
	}
	if want := sha256.Sum256(msg); !bytes.Equal(got, want[:]) {
		t.Errorf("got %x, want %x", got, want)
	}
}

// TestDigestIntoNoAllocs pins DigestInto's promise: a warm Hasher
// digests and verifies without touching the heap, on either path.
func TestDigestIntoNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tokens := make([]core.Token, 5)
	for i := range tokens {
		tokens[i] = tok(int64(i), int64(2*i), 0, int64(3*i), int64(-i))
	}
	for _, path := range compressPaths() {
		t.Run(path.name, func(t *testing.T) {
			h, err := newHasher(Params{Iterations: 10, Salt: []byte("0123456789abcdef")}, path.kernel)
			if err != nil {
				t.Fatal(err)
			}
			sum := h.DigestInto(nil, tokens)
			if n := testing.AllocsPerRun(100, func() { sum = h.DigestInto(sum[:0], tokens) }); n != 0 {
				t.Errorf("DigestInto: %v allocs/op, want 0", n)
			}
			stored := append([]byte(nil), sum...)
			h.Verify(stored, tokens)
			if n := testing.AllocsPerRun(100, func() {
				if !h.Verify(stored, tokens) {
					t.Fatal("Verify rejected its own digest")
				}
			}); n != 0 {
				t.Errorf("Verify: %v allocs/op, want 0", n)
			}
		})
	}
}

// FuzzDigest: for any salt, message and short chain, both compress
// paths equal the crypto/hmac reference.
func FuzzDigest(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), []byte("msg"), uint8(3))
	f.Add(pattern(65, 0), pattern(55, 1), uint8(0))
	f.Add(pattern(64, 2), pattern(120, 3), uint8(7))
	f.Fuzz(func(t *testing.T, salt, msg []byte, n uint8) {
		if len(salt) == 0 {
			return
		}
		iters := 1 + int(n%8)
		want := refChain(salt, msg, iters)
		for _, path := range compressPaths() {
			if got := chainOf(t, path, salt, msg, iters); !bytes.Equal(got, want) {
				t.Fatalf("%s: salt %x, msg %x, iters %d: got %x, want %x", path.name, salt, msg, iters, got, want)
			}
		}
	})
}

// BenchmarkChain measures one h^1000 verifier of five tokens' worth of
// message on each compress path.
func BenchmarkChain(b *testing.B) {
	for _, path := range compressPaths() {
		b.Run(path.name, func(b *testing.B) {
			h, err := newHasher(Params{Iterations: DefaultIterations, Salt: []byte("0123456789abcdef")}, path.kernel)
			if err != nil {
				b.Fatal(err)
			}
			msg := pattern(167, 5)
			var sum []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.buf = append(h.buf[:0], msg...)
				sum = h.chain(sum[:0])
			}
		})
	}
}
