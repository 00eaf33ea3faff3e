//go:build amd64 && !purego

package passhash

// useSHANI selects the compress kernel. It needs every feature the
// kernel's instructions use — SHA, SSSE3, SSE4.1 and AVX with the XMM
// and YMM register state enabled by the OS — the same gate
// crypto/sha256 applies to its own blockSHANI.
var useSHANI = hasSHANI()

func hasSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	ssse3 := ecx1&(1<<9) != 0
	sse41 := ecx1&(1<<19) != 0
	osxsave := ecx1&(1<<27) != 0
	avx := ecx1&(1<<28) != 0
	if !ssse3 || !sse41 || !osxsave || !avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<29) != 0
}

// compress runs the SHA-256 compression function over each whole
// 64-byte block of blocks, updating h in place (a trailing partial
// block is ignored). It is the SHA-NI kernel of compress_amd64.s and
// may be called only when useSHANI is true.
//
//go:noescape
func compress(h *[8]uint32, blocks []byte)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
