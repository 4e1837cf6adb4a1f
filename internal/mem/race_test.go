//go:build race

package mem

// modelSteps is TestMemoryMatchesModel's length. Its reference hashes every
// checkpoint page byte by byte after each step, which the race detector
// slows about fifteenfold, so race builds run a fifth of the steps.
const modelSteps = 500
