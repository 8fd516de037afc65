package rt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestCutFansOutFromTwoGrain: one worker below two Grain or below two
// blocks, at most one worker a block above, and GOMAXPROCS for a
// negative count.
func TestCutFansOutFromTwoGrain(t *testing.T) {
	for _, c := range []struct{ n, grain, workers, want int }{
		{0, Grain, 8, 1},
		{2*Grain - 1, Grain, 8, 1},
		{2 * Grain, Grain, 8, 2},
		{2*Grain + 1, Grain, 8, 3},
		{8 * Grain, Grain, 3, 3},
		{8 * Grain, 8 * Grain, 8, 1},
		{8 * Grain, Grain, 0, 1},
		{8 * Grain, Grain, -1, min(8, runtime.GOMAXPROCS(0))},
	} {
		if got := Cut(c.n, c.grain, c.workers).Workers; got != c.want {
			t.Errorf("Cut(%d, %d, %d): %d workers, want %d", c.n, c.grain, c.workers, got, c.want)
		}
	}
}

// settled waits for the goroutine count to fall back to base: a pool
// must leave no goroutine behind.
func settled(t *testing.T, label string, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 200 {
			t.Fatalf("%s: %d goroutines left running, %d before", label, runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBlocksEach: at widths 1, 2, 3 and 8 every block fills exactly
// once; a failing block — the first, the last, or two at once with the
// higher failing first — returns the lowest failing block's error after
// every block below it ran; a canceled context returns an error
// wrapping ErrCanceled; and no goroutine is left running.
func TestBlocksEach(t *testing.T) {
	const n = 9*Grain + 7 // ten blocks, the last ragged
	const last = n / Grain
	cases := []struct {
		name string
		fail []int // failing blocks; the lowest sleeps, so a higher fails first
	}{
		{"none", nil},
		{"first", []int{0}},
		{"last", []int{last}},
		{"two", []int{1, 2}},
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, tc := range cases {
			label := fmt.Sprintf("workers=%d/%s", workers, tc.name)
			base := runtime.NumGoroutine()
			b := Cut(n, Grain, workers)
			if b.Workers != workers {
				t.Fatalf("%s: Cut gave %d workers", label, b.Workers)
			}
			var mu sync.Mutex
			ran := make([]int, b.Count())
			started := make([]int, b.Workers)
			err := b.Each(context.Background(), nil, "", func(w int) func(lo, hi int) error {
				started[w]++
				return func(lo, hi int) error {
					k := lo / Grain
					if want := min(lo+Grain, n); hi != want || lo%Grain != 0 {
						return fmt.Errorf("block [%d, %d), want [%d, %d)", lo, hi, k*Grain, want)
					}
					mu.Lock()
					ran[k]++
					mu.Unlock()
					for i, f := range tc.fail {
						if f == k {
							if i == 0 && len(tc.fail) > 1 && workers > 1 {
								time.Sleep(20 * time.Millisecond)
							}
							return fmt.Errorf("block %d failed", k)
						}
					}
					return nil
				}
			})
			for w, c := range started {
				if c != 1 {
					t.Errorf("%s: work(%d) called %d times", label, w, c)
				}
			}
			if len(tc.fail) == 0 {
				if err != nil {
					t.Errorf("%s: %v", label, err)
				}
				for k, c := range ran {
					if c != 1 {
						t.Errorf("%s: block %d ran %d times", label, k, c)
					}
				}
			} else {
				low := tc.fail[0]
				if want := fmt.Sprintf("block %d failed", low); err == nil || err.Error() != want {
					t.Errorf("%s: err = %v, want %q", label, err, want)
				}
				for k := 0; k <= low; k++ {
					if ran[k] != 1 {
						t.Errorf("%s: block %d below the failure ran %d times", label, k, ran[k])
					}
				}
			}
			settled(t, label, base)
		}

		// A context canceled before the call, and one canceled by the
		// first block.
		label := fmt.Sprintf("workers=%d/canceled", workers)
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		none := func(int) func(lo, hi int) error {
			return func(lo, hi int) error { return fmt.Errorf("block [%d, %d) ran under a canceled context", lo, hi) }
		}
		if err := Cut(n, Grain, workers).Each(ctx, nil, "", none); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", label, err)
		}
		ctx, cancel = context.WithCancel(context.Background())
		first := func(int) func(lo, hi int) error {
			return func(lo, hi int) error {
				if lo == 0 {
					cancel()
				}
				return nil
			}
		}
		if err := Cut(n, Grain, workers).Each(ctx, nil, "", first); !errors.Is(err, ErrCanceled) && workers == 1 {
			t.Errorf("%s mid-way: err = %v, want ErrCanceled", label, err)
		}
		cancel()
		settled(t, label, base)
	}
}

// TestBlocksFill: every element of payloads around the grain is written
// once, at every width.
func TestBlocksFill(t *testing.T) {
	for _, n := range []int{0, 1, Grain, 2 * Grain, 3*Grain + 5} {
		for _, workers := range []int{1, 2, 3, 8} {
			hits := make([]int32, n)
			Cut(n, Grain, workers).Fill(func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: element %d written %d times", n, workers, i, h)
				}
			}
		}
	}
}
