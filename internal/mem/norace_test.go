//go:build !race

package mem

// modelSteps is TestMemoryMatchesModel's length.
const modelSteps = 2500
