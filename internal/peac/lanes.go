package peac

import (
	"errors"
	"math"
)

// Data-dependent faults of the IntOp divide and mod. Callers wrap them
// with the routine name.
var (
	errIntDivZero = errors.New("integer division by zero")
	errIntModZero = errors.New("mod by zero")
)

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Lane loops. Each is a monomorphic pass over the chunk window with the
// sources resliced to len(dst) so the compiler drops the bounds checks.
// Loops run in ascending element order and touch only index i per
// step, so a destination register aliasing a source (d = d*s) computes
// one element at a time, reading i before writing i. A product that
// feeds a sum is written float64(x*y): the conversion forbids a fused
// multiply-add, so every architecture rounds twice, as the op does.

func lanesAdd(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

func lanesSub(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

func lanesMul(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] * y[i]
	}
}

func lanesDiv(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = x[i] / y[i]
	}
}

func lanesDivInt(dst, x, y []float64) error {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		d := y[i]
		if d == 0 {
			return errIntDivZero
		}
		dst[i] = math.Trunc(x[i] / d)
	}
	return nil
}

func lanesMod(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = math.Mod(x[i], y[i])
	}
}

func lanesModInt(dst, x, y []float64) error {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		d := y[i]
		if d == 0 {
			return errIntModZero
		}
		v := x[i]
		dst[i] = v - float64(math.Trunc(v/d)*d)
	}
	return nil
}

func lanesMin(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = math.Min(x[i], y[i])
	}
}

func lanesMax(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = math.Max(x[i], y[i])
	}
}

func lanesFmadd(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]*y[i]) + z[i]
	}
}

func lanesFmsub(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		dst[i] = float64(x[i]*y[i]) - z[i]
	}
}

func lanesNeg(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = -x[i]
	}
}

func lanesAbs(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Abs(x[i])
	}
}

func lanesSqrt(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Sqrt(x[i])
	}
}

// lanesRepeat is the lane loop of a transcendental: f is a function of
// its input's bits alone, so a lane whose input repeats the previous
// lane's bits reuses that lane's result instead of calling f (SWE's
// sin((j-0.5)*dj) is one value along a strip). The previous input is
// kept in a local, not re-read from x, so dst may be x (fsinv aV1 aV1).
func lanesRepeat(dst, x []float64, f func(float64) float64) {
	x = x[:len(dst)]
	var in, out float64
	for i, v := range x {
		if i == 0 || math.Float64bits(v) != math.Float64bits(in) {
			in, out = v, f(v)
		}
		dst[i] = out
	}
}

func lanesSin(dst, x, _, _ []float64) { lanesRepeat(dst, x, math.Sin) }

func lanesCos(dst, x, _, _ []float64) { lanesRepeat(dst, x, math.Cos) }

func lanesTan(dst, x, _, _ []float64) { lanesRepeat(dst, x, math.Tan) }

func lanesExp(dst, x, _, _ []float64) { lanesRepeat(dst, x, math.Exp) }

func lanesLog(dst, x, _, _ []float64) { lanesRepeat(dst, x, math.Log) }

func lanesTrunc(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = math.Trunc(x[i])
	}
}

func lanesMov(dst, x, _, _ []float64) {
	copy(dst, x[:len(dst)])
}

func lanesNot(dst, x, _, _ []float64) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] == 0)
	}
}

func lanesCmpEQ(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] == y[i])
	}
}

func lanesCmpNE(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] != y[i])
	}
}

func lanesCmpLT(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] < y[i])
	}
}

func lanesCmpLE(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] <= y[i])
	}
}

func lanesCmpGT(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] > y[i])
	}
}

func lanesCmpGE(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] >= y[i])
	}
}

func lanesFalse(dst, _, _, _ []float64) {
	for i := range dst {
		dst[i] = 0
	}
}

func lanesAnd(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] != 0 && y[i] != 0)
	}
}

func lanesOr(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f(x[i] != 0 || y[i] != 0)
	}
}

func lanesEqv(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f((x[i] != 0) == (y[i] != 0))
	}
}

func lanesNeqv(dst, x, y, _ []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = b2f((x[i] != 0) != (y[i] != 0))
	}
}

func lanesSel(dst, x, y, z []float64) {
	x, y, z = x[:len(dst)], y[:len(dst)], z[:len(dst)]
	for i := range dst {
		if z[i] != 0 {
			dst[i] = x[i]
		} else {
			dst[i] = y[i]
		}
	}
}
