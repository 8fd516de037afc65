package rt

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"f90y/internal/obs"
)

// Grain is the block, in elements, that the host splits array work
// into: the PEAC executor's chunk and the comm layer's payload block.
// Blocks are cut by this constant, never by a worker count, so which
// goroutine filled a block cannot show in a result.
const Grain = 4096

// Blocks is n elements of array work cut into Block-long blocks, and
// the number of workers that fill them. It is the host's one fan-out:
// the PEAC executor runs a dispatch's chunks on it and the comm layer
// fills its payloads on it.
type Blocks struct{ N, Block, Workers int }

// Cut plans n elements in blocks of grain elements on at most workers
// workers, a negative count meaning GOMAXPROCS. Work fans out only from
// two Grain and two blocks up; below that one worker fills every block.
func Cut(n, grain, workers int) Blocks {
	b := Blocks{N: n, Block: max(grain, 1), Workers: 1}
	if n >= 2*Grain {
		if workers < 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		b.Workers = max(1, min(workers, b.Count()))
	}
	return b
}

// Count is the number of blocks.
func (b Blocks) Count() int { return (b.N + b.Block - 1) / b.Block }

// Each fills every block [lo, hi) on b.Workers workers, the caller and
// Workers−1 goroutines, and returns once all of them have stopped.
// Worker w calls work(w) once, before its first claim, for the function
// it fills its blocks with; that function must write only inside its
// own block. Blocks are claimed in order off one counter, so with one
// worker they run in order and no goroutine starts.
//
// A failing block stops further claims while blocks already claimed
// run to completion, so every block below the lowest failing one ran:
// Each returns that block's error, the one a serial loop meets first.
// ctx is checked before every claim; when it ends before every block
// ran and none failed, Each returns an error wrapping ErrCanceled.
//
// With a recorder and more than one worker, each worker records a
// "worker/<name>" span on its own track with a "chunk/<name>" span per
// block inside it, and wall-clock telemetry under "execpool/": the
// workers, chunks and elements counters and the chunk-ns and
// chunk-claim-wait-ns histograms. It never feeds a modeled number.
func (b Blocks) Each(ctx context.Context, rec obs.Recorder, name string, work func(w int) func(lo, hi int) error) error {
	p := &pool{b: b, ctx: ctx, work: work, failed: b.Count()}
	if b.Workers > 1 {
		p.rec, p.name = rec, name
	}
	p.wg.Add(b.Workers - 1)
	for w := 1; w < b.Workers; w++ {
		go func() {
			defer p.wg.Done()
			p.worker(w)
		}()
	}
	p.worker(0)
	p.wg.Wait()
	if p.err != nil {
		return p.err
	}
	if p.next.Load() < int64(b.Count()) {
		// No block failed, yet one was never claimed: ctx ended.
		return Canceled(ctx)
	}
	return nil
}

// Fill runs fill over every block, as Each does, for work that cannot
// fail and need not stop.
func (b Blocks) Fill(fill func(lo, hi int)) {
	_ = b.Each(context.Background(), nil, "", func(int) func(lo, hi int) error {
		return func(lo, hi int) error {
			fill(lo, hi)
			return nil
		}
	})
}

// pool is one Each call's shared state.
type pool struct {
	b    Blocks
	ctx  context.Context
	work func(w int) func(lo, hi int) error
	rec  obs.Recorder
	name string
	wg   sync.WaitGroup
	next atomic.Int64 // the next block to claim
	stop atomic.Bool  // a block failed: claim no more
	mu   sync.Mutex
	// failed is the lowest failing block so far (Count() when none),
	// err its error.
	failed int
	err    error
}

// worker claims and fills blocks until they run out, one fails, or ctx
// ends.
func (p *pool) worker(w int) {
	fill := p.work(w)
	track := w + 1
	if p.rec != nil {
		obs.Add(p.rec, "execpool/workers", 1)
		defer obs.StartTrack(p.rec, "worker/"+p.name, track).End()
	}
	for !p.stop.Load() && p.ctx.Err() == nil {
		var claim time.Time
		if p.rec != nil {
			claim = time.Now()
		}
		k := int(p.next.Add(1)) - 1
		if k >= p.b.Count() {
			return
		}
		lo := k * p.b.Block
		hi := min(lo+p.b.Block, p.b.N)
		var sp obs.Span
		var t0 time.Time
		if p.rec != nil {
			t0 = time.Now()
			obs.Observe(p.rec, "execpool/chunk-claim-wait-ns", float64(t0.Sub(claim).Nanoseconds()))
			sp = obs.StartTrack(p.rec, "chunk/"+p.name, track)
		}
		err := fill(lo, hi)
		if p.rec != nil {
			sp.End()
			obs.Observe(p.rec, "execpool/chunk-ns", float64(time.Since(t0).Nanoseconds()))
			obs.Add(p.rec, "execpool/chunks", 1)
			obs.Add(p.rec, "execpool/elements", float64(hi-lo))
		}
		if err != nil {
			p.mu.Lock()
			if k < p.failed {
				p.failed, p.err = k, err
			}
			p.mu.Unlock()
			p.stop.Store(true)
			return
		}
	}
}
