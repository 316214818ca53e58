package hashtab

// kernelNameArch names this GOARCH's vector kernel.
const kernelNameArch = "neon"

// fastProbeArch gates commitSum2 (fastprobe.go),
// which load packed key words through unsafe at 4-byte alignment:
// fine on arm64, where Go already assumes unaligned load support.
const fastProbeArch = true

// matchTagsSIMD compares all 16 group tags against tag with one NEON
// byte-compare and a bit-table reduction (match_arm64.s).
//
//go:noescape
func matchTagsSIMD(tags *[GroupSlots]uint8, tag uint8) uint16

// haveSIMD: NEON (ASIMD) is baseline on armv8 — every arm64 Go target
// has it.
func haveSIMD() bool { return true }
