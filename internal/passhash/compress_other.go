//go:build !amd64 || purego

package passhash

// useSHANI is false where the SHA-NI kernel is not built: every
// Hasher compresses through compressGeneric.
const useSHANI = false

// compress is never called when useSHANI is false.
func compress(h *[8]uint32, blocks []byte) {
	panic("passhash: SHA-NI kernel not built for this platform")
}
