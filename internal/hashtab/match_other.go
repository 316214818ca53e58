//go:build !amd64 && !arm64

package hashtab

// kernelNameArch names this GOARCH's vector kernel (none — the name is
// only reported when simdEnabled, which haveSIMD below rules out).
const kernelNameArch = "generic"

// matchTagsSIMD is never selected on architectures without a vector
// kernel; it aliases the generic path for type completeness.
func matchTagsSIMD(g *[GroupSlots]uint8, tag uint8) uint16 {
	return matchTagsGeneric(g, tag)
}

// haveSIMD: no vector kernel for this GOARCH.
func haveSIMD() bool { return false }

// fastProbeArch: commitSum2 (fastprobe.go) does unaligned word loads
// through unsafe, which not every GOARCH permits — every table commits
// through commitProbe here.
const fastProbeArch = false
