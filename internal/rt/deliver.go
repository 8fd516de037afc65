package rt

import (
	"fmt"
	"math"

	"f90y/internal/faults"
	"f90y/internal/nir"
)

// This file is the resilient delivery path of the communication layer.
// Every comm operation stages its result (a payload slice, a scalar, or
// a write list) and commits it through deliver, which models a
// checksum-verified network transfer under the fault plane:
//
//   - the base cycle cost is charged once, exactly as in a fault-free
//     run (with no injector attached the staged result commits
//     immediately — the zero-overhead invariant);
//   - an injected Drop loses the message: the receiver's ack timer
//     fires and the sender retransmits;
//   - an injected Corrupt flips one payload bit in flight: the
//     per-transfer checksum (faults.Checksum over the committed data)
//     detects the mismatch and the sender retransmits;
//   - an injected Delay delivers intact after a stall charge;
//   - each retransmission charges the full transfer cost again plus a
//     capped exponential backoff wait, all into the same per-network
//     cycle bucket, until the retry budget is exhausted and the
//     operation fails with faults.ErrTransfer.
type transfer struct {
	elems   int
	commit  func()                     // write the staged payload to its destination
	corrupt func(victim int, bit uint) // flip one bit of the committed payload
	verify  func() bool                // recompute the destination checksum against the staged one
}

func (c *Comm) deliver(class string, cyc float64, t transfer) error {
	c.charge(class, cyc)
	if c.OpCalls != nil {
		c.OpCalls[c.op+"/"+class]++
	}
	inj := c.Faults
	if inj == nil {
		t.commit()
		return nil
	}
	for attempt := 0; ; attempt++ {
		switch inj.Transfer(class, t.elems) {
		case faults.OK:
			t.commit()
			return nil
		case faults.Delay:
			c.charge(class, inj.DelayCycles())
			t.commit()
			return nil
		case faults.Corrupt:
			t.commit()
			t.corrupt(inj.Pick(t.elems), inj.CorruptBit())
			if t.verify() {
				return nil // flip landed outside the checked payload
			}
			// Checksum mismatch: fall through to retransmission.
		case faults.Drop:
			// Nothing arrived; the ack timer fires.
		}
		if attempt >= inj.MaxRetries() {
			return fmt.Errorf("rt: %s transfer of %d elements gave up after %d retries: %w",
				class, t.elems, attempt, faults.ErrTransfer)
		}
		retry := cyc + inj.RetryWait(attempt)
		c.charge(class, retry)
		inj.NoteRetry(class, retry)
	}
}

// deliverArray commits staged element values into dst.Data. The
// payload checksum is only computed when an injector is attached —
// verify only runs on the Corrupt path, and hashing every healthy
// transfer would violate the zero-overhead invariant (it showed up as
// a third of SWE wall-clock under the profiler).
func (c *Comm) deliverArray(class string, cyc float64, dst *Array, stage []float64) error {
	dst.Wrote()
	var sum uint64
	if c.Faults != nil {
		sum = faults.Checksum(stage)
	}
	// A payload staged in the destination itself (stageFor's healthy
	// fast path) is already committed; copying it onto itself would
	// only burn memmove time.
	inPlace := len(stage) > 0 && len(dst.Data) > 0 && &stage[0] == &dst.Data[0]
	return c.deliver(class, cyc, transfer{
		elems: len(stage),
		commit: func() {
			if !inPlace {
				copy(dst.Data, stage)
				if c.OpCalls != nil {
					c.StageBytes += 8 * len(stage)
				}
			}
		},
		corrupt: func(victim int, bit uint) {
			if victim < len(dst.Data) {
				dst.Data[victim] = faults.FlipBit(dst.Data[victim], bit)
			}
		},
		verify: func() bool { return faults.Checksum(dst.Data[:len(stage)]) == sum },
	})
}

// deliverScalar commits a reduction result into the named scalar with
// the store's kind semantics.
func (c *Comm) deliverScalar(class string, cyc float64, elems int, name string, v float64) error {
	var want float64
	return c.deliver(class, cyc, transfer{
		elems: elems,
		commit: func() {
			c.Store.SetScalar(name, v)
			want = c.Store.Scalars[name]
		},
		corrupt: func(_ int, bit uint) {
			c.Store.Scalars[name] = faults.FlipBit(c.Store.Scalars[name], bit)
		},
		verify: func() bool {
			return faults.Checksum([]float64{c.Store.Scalars[name]}) == faults.Checksum([]float64{want})
		},
	})
}

// commWrite is one staged element store of a general-router move.
type commWrite struct {
	arr *Array
	off int
	val float64
}

// deliverWrites commits a general move's write list (evaluate-before-
// store semantics: the list is fully staged before the first commit).
func (c *Comm) deliverWrites(class string, cyc float64, writes []commWrite) error {
	return c.deliver(class, cyc, transfer{
		elems:  len(writes),
		commit: func() { applyWrites(writes) },
		corrupt: func(victim int, bit uint) {
			if victim < len(writes) {
				w := writes[victim]
				w.arr.Data[w.off] = faults.FlipBit(w.arr.Data[w.off], bit)
			}
		},
		verify: func() bool { return verifyWrites(writes) },
	})
}

func applyWrites(writes []commWrite) {
	for _, w := range writes {
		w.arr.StoreVal(w.off, w.val)
	}
}

// verifyWrites checks that every written cell holds its staged value
// (the last write wins for duplicate offsets, per commit order).
func verifyWrites(writes []commWrite) bool {
	type cell struct {
		arr *Array
		off int
	}
	seen := map[cell]bool{}
	for i := len(writes) - 1; i >= 0; i-- {
		w := writes[i]
		key := cell{w.arr, w.off}
		if seen[key] {
			continue
		}
		seen[key] = true
		want := w.val
		if w.arr.Kind == nir.Integer32 {
			want = math.Trunc(w.val)
		}
		if faults.Checksum([]float64{w.arr.Data[w.off]}) != faults.Checksum([]float64{want}) {
			return false
		}
	}
	return true
}
