package cm2

import (
	"fmt"

	"f90y/internal/peac"
	"f90y/internal/rt"
)

// fetchMem reads a pointer stream for [start, start+w) into dst.
func fetchMem(st stream, dst []float64, start, w int, ext, lo, strideBelow []int) {
	if st.coordDim > 0 {
		d := st.coordDim - 1
		for i := 0; i < w; i++ {
			off := start + i
			dst[i] = float64(lo[d] + (off/strideBelow[d])%ext[d])
		}
		return
	}
	if st.rot != nil {
		// A rotated stream, by the definition: element off of the stream
		// has, per dimension, the source's index plus the rotation, modulo
		// the extent. (The translated form gathers runs; env.rotated.)
		for i := 0; i < w; i++ {
			off, src, stride := start+i, 0, 1
			for d, n := range st.arr.Ext {
				src += (off/stride%n + st.rot[d]) % n * stride
				stride *= n
			}
			dst[i] = st.arr.Data[src]
		}
		return
	}
	copy(dst[:w], st.arr.Data[start:start+w])
}

// refChunk is the reference evaluator, what the differential tests and
// the oracle hold the translated form against (cm2.TestOnlyEngine);
// production never runs it. It is a straight-line walk of the routine
// body over one chunk window driven by the peac op table alone: every
// source operand is materialized into its own buffer, the op's lane loop
// runs into the destination register, the numeric plane scans it. No
// decoding, elision, fusion, sinking, tiling or in-place windows — the
// things the translated form could get wrong.
func refChunk(r *peac.Routine, ws *workspace, streams []stream, scalars []float64,
	start, w int, ext, lo, strideBelow []int, num *rt.Numeric, subgrid, npes int) error {

	regs, slots := ws.regs, ws.slots
	bound := func(n int) (stream, bool) {
		if n >= len(streams) || (streams[n].arr == nil && streams[n].coordDim == 0) {
			return stream{}, false
		}
		return streams[n], true
	}
	for idx, in := range r.Body {
		info := in.Op.Info()
		switch info.Form {
		case peac.FormNone:
			continue
		case peac.FormLoad:
			st, ok := bound(in.A.N)
			if !ok {
				return fmt.Errorf("load from unbound pointer aP%d", in.A.N)
			}
			fetchMem(st, regs[in.D.N], start, w, ext, lo, strideBelow)
			continue
		case peac.FormRestore:
			copy(regs[in.D.N][:w], slots[in.A.N][:w])
			continue
		case peac.FormStore:
			// The unbound-pointer taxonomy: a target register no param
			// binds is "unbound"; one bound to a coordinate stream is a
			// distinct, read-only-target error (coordinates are computed,
			// not stored).
			if st, ok := bound(in.D.N); !ok {
				return fmt.Errorf("store to unbound pointer aP%d", in.D.N)
			} else if st.arr == nil {
				return fmt.Errorf("store to coordinate stream aP%d", in.D.N)
			}
		}

		// Materialize the sources in A, B, C order, each into its own
		// buffer: a missing operand is zero lanes, a scalar its broadcast.
		var src [3][]float64
		for pos, o := range in.Sources() {
			buf := ws.mem[pos][:w]
			switch o.Kind {
			case peac.VReg:
				copy(buf, regs[o.N])
			case peac.SpillSlot:
				copy(buf, slots[o.N])
			case peac.Mem:
				st, ok := bound(o.N)
				if !ok {
					return fmt.Errorf("chained load from unbound pointer aP%d", o.N)
				}
				fetchMem(st, buf, start, w, ext, lo, strideBelow)
			default:
				v := 0.0
				if o.Kind == peac.SReg {
					v = scalars[o.N]
				}
				for i := range buf {
					buf[i] = v
				}
			}
			src[pos] = buf
		}

		switch info.Form {
		case peac.FormSpill:
			copy(slots[in.D.N][:w], src[0])
		case peac.FormStore:
			arr := streams[in.D.N].arr
			for i, v := range src[0] {
				if in.C.Kind == peac.NoOperand || src[2][i] != 0 {
					arr.StoreVal(start+i, v)
				}
			}
		case peac.FormArith:
			dst := regs[in.D.N][:w]
			if fn, fnErr := in.Lanes(); fnErr != nil {
				if err := fnErr(dst, src[0], src[1]); err != nil {
					return err
				}
			} else if fn != nil {
				fn(dst, src[0], src[1], src[2])
			} else {
				return fmt.Errorf("unimplemented opcode %v", in.Mnemonic())
			}
			if num != nil && num.Mode != rt.NumericOff && info.Trap {
				if err := scanNumeric(num, idx, in.Mnemonic(), info.Class.String(), dst, start, w, subgrid, npes); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
