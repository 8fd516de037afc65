//go:build amd64 && !purego

package peac

// hasVector reports whether the host runs the AVX bodies of
// vec_amd64.s: the CPU has AVX and the OS saves the YMM registers.
var hasVector = avxProbe()

func avxProbe() bool

var arithBodies = [4]Body{vaddpd, vsubpd, vmulpd, vdivpd}

var pairBodies = [4][4][2]Body{
	{{addAddR, addAddL}, {addSubR, addSubL}, {addMulR, addMulL}, {addDivR, addDivL}},
	{{subAddR, subAddL}, {subSubR, subSubL}, {subMulR, subMulL}, {subDivR, subDivL}},
	{{mulAddR, mulAddL}, {mulSubR, mulSubL}, {mulMulR, mulMulL}, {mulDivR, mulDivL}},
	{{divAddR, divAddL}, {divSubR, divSubL}, {divMulR, divMulL}, {divDivR, divDivL}},
}

// The bodies, each func(dst, x, y, z *float64, n int).

//go:noescape
func vaddpd(dst, x, y, z *float64, n int)

//go:noescape
func vsubpd(dst, x, y, z *float64, n int)

//go:noescape
func vmulpd(dst, x, y, z *float64, n int)

//go:noescape
func vdivpd(dst, x, y, z *float64, n int)

//go:noescape
func addAddL(dst, x, y, z *float64, n int)

//go:noescape
func addAddR(dst, x, y, z *float64, n int)

//go:noescape
func addSubL(dst, x, y, z *float64, n int)

//go:noescape
func addSubR(dst, x, y, z *float64, n int)

//go:noescape
func addMulL(dst, x, y, z *float64, n int)

//go:noescape
func addMulR(dst, x, y, z *float64, n int)

//go:noescape
func addDivL(dst, x, y, z *float64, n int)

//go:noescape
func addDivR(dst, x, y, z *float64, n int)

//go:noescape
func subAddL(dst, x, y, z *float64, n int)

//go:noescape
func subAddR(dst, x, y, z *float64, n int)

//go:noescape
func subSubL(dst, x, y, z *float64, n int)

//go:noescape
func subSubR(dst, x, y, z *float64, n int)

//go:noescape
func subMulL(dst, x, y, z *float64, n int)

//go:noescape
func subMulR(dst, x, y, z *float64, n int)

//go:noescape
func subDivL(dst, x, y, z *float64, n int)

//go:noescape
func subDivR(dst, x, y, z *float64, n int)

//go:noescape
func mulAddL(dst, x, y, z *float64, n int)

//go:noescape
func mulAddR(dst, x, y, z *float64, n int)

//go:noescape
func mulSubL(dst, x, y, z *float64, n int)

//go:noescape
func mulSubR(dst, x, y, z *float64, n int)

//go:noescape
func mulMulL(dst, x, y, z *float64, n int)

//go:noescape
func mulMulR(dst, x, y, z *float64, n int)

//go:noescape
func mulDivL(dst, x, y, z *float64, n int)

//go:noescape
func mulDivR(dst, x, y, z *float64, n int)

//go:noescape
func divAddL(dst, x, y, z *float64, n int)

//go:noescape
func divAddR(dst, x, y, z *float64, n int)

//go:noescape
func divSubL(dst, x, y, z *float64, n int)

//go:noescape
func divSubR(dst, x, y, z *float64, n int)

//go:noescape
func divMulL(dst, x, y, z *float64, n int)

//go:noescape
func divMulR(dst, x, y, z *float64, n int)

//go:noescape
func divDivL(dst, x, y, z *float64, n int)

//go:noescape
func divDivR(dst, x, y, z *float64, n int)
