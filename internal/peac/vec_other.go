//go:build !amd64 || purego

package peac

// Without the AVX bodies every op runs its Go loop.
const hasVector = false

var (
	arithBodies [4]Body
	pairBodies  [4][4][2]Body
)
