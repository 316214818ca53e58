package hashtab

// kernelNameArch names this GOARCH's vector kernel.
const kernelNameArch = "avx2"

// fastProbeArch gates commitSum2 (fastprobe.go),
// which load packed key words through unsafe at 4-byte alignment:
// fine on amd64, where unaligned scalar loads are architectural.
const fastProbeArch = true

// matchTagsSIMD compares all 16 group tags against tag with one AVX2
// byte-compare and returns the lane mask (match_amd64.s). Callers must
// gate on simdEnabled: executing it on a pre-AVX2 CPU faults.
//
//go:noescape
func matchTagsSIMD(tags *[GroupSlots]uint8, tag uint8) uint16

// cpuid executes the CPUID instruction (leaf eaxArg, subleaf ecxArg).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the OS-enabled extended-state mask.
func xgetbv() (eax, edx uint32)

// haveSIMD reports AVX2 with OS-saved YMM state: CPUID.1:ECX OSXSAVE+AVX,
// XCR0 bits 1–2 (XMM+YMM context switched by the OS), CPUID.7:EBX AVX2.
// The kernel itself only touches XMM registers, but it is VEX-encoded,
// and VEX without OS AVX support is undefined instruction territory.
func haveSIMD() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveAndAVX = 1<<27 | 1<<28
	if ecx1&osxsaveAndAVX != osxsaveAndAVX {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
