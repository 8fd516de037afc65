package cm2

import "f90y/internal/peac"

// Fused-pair loops (see program.planFuse). Each computes t = x op1 y —
// the explicit float64 conversion is the spec's fusion barrier, pinning
// the intermediate to the exact rounding a register write performs —
// then combines t with z on the side the second instruction read the
// register. Operand order is preserved exactly (no commuting), so even
// NaN-payload propagation matches the unfused pair.

// fusedOps is indexed [op1][op2][accumulator side] with the ops in
// fuseIndex order and side 1 meaning the second instruction read t as
// its left operand.
var fusedOps = [4][4][2]peac.LaneFunc{
	{{fuseAddAddR, fuseAddAddL}, {fuseAddSubR, fuseAddSubL}, {fuseAddMulR, fuseAddMulL}, {fuseAddDivR, fuseAddDivL}},
	{{fuseSubAddR, fuseSubAddL}, {fuseSubSubR, fuseSubSubL}, {fuseSubMulR, fuseSubMulL}, {fuseSubDivR, fuseSubDivL}},
	{{fuseMulAddR, fuseMulAddL}, {fuseMulSubR, fuseMulSubL}, {fuseMulMulR, fuseMulMulL}, {fuseMulDivR, fuseMulDivL}},
	{{fuseDivAddR, fuseDivAddL}, {fuseDivSubR, fuseDivSubL}, {fuseDivMulR, fuseDivMulL}, {fuseDivDivR, fuseDivDivL}},
}

// fuseIndex is an op's row in fusedOps, -1 for an op that never fuses.
func fuseIndex(op peac.Opcode) int {
	switch op {
	case peac.FADDV:
		return 0
	case peac.FSUBV:
		return 1
	case peac.FMULV:
		return 2
	case peac.FDIVV:
		return 3
	}
	return -1
}

func fuseAddAddL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]+y[i]) + z[i]
	}
}

func fuseAddAddR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] + float64(x[i]+y[i])
	}
}

func fuseAddSubL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]+y[i]) - z[i]
	}
}

func fuseAddSubR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] - float64(x[i]+y[i])
	}
}

func fuseAddMulL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]+y[i]) * z[i]
	}
}

func fuseAddMulR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] * float64(x[i]+y[i])
	}
}

func fuseAddDivL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]+y[i]) / z[i]
	}
}

func fuseAddDivR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] / float64(x[i]+y[i])
	}
}

func fuseSubAddL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]-y[i]) + z[i]
	}
}

func fuseSubAddR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] + float64(x[i]-y[i])
	}
}

func fuseSubSubL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]-y[i]) - z[i]
	}
}

func fuseSubSubR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] - float64(x[i]-y[i])
	}
}

func fuseSubMulL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]-y[i]) * z[i]
	}
}

func fuseSubMulR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] * float64(x[i]-y[i])
	}
}

func fuseSubDivL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]-y[i]) / z[i]
	}
}

func fuseSubDivR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] / float64(x[i]-y[i])
	}
}

func fuseMulAddL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]*y[i]) + z[i]
	}
}

func fuseMulAddR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] + float64(x[i]*y[i])
	}
}

func fuseMulSubL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]*y[i]) - z[i]
	}
}

func fuseMulSubR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] - float64(x[i]*y[i])
	}
}

func fuseMulMulL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]*y[i]) * z[i]
	}
}

func fuseMulMulR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] * float64(x[i]*y[i])
	}
}

func fuseMulDivL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]*y[i]) / z[i]
	}
}

func fuseMulDivR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] / float64(x[i]*y[i])
	}
}

func fuseDivAddL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]/y[i]) + z[i]
	}
}

func fuseDivAddR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] + float64(x[i]/y[i])
	}
}

func fuseDivSubL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]/y[i]) - z[i]
	}
}

func fuseDivSubR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] - float64(x[i]/y[i])
	}
}

func fuseDivMulL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]/y[i]) * z[i]
	}
}

func fuseDivMulR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] * float64(x[i]/y[i])
	}
}

func fuseDivDivL(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]/y[i]) / z[i]
	}
}

func fuseDivDivR(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = z[i] / float64(x[i]/y[i])
	}
}
