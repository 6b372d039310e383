package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dsmtx/internal/mem"
	"dsmtx/internal/uva"
)

// LoadInput bulk-loads a program's input into committed memory: chunks
// consecutive chunks of chunkBytes bytes from addr on, chunk i holding the
// bytes fill(i, buf) returns. It is how Setup lays out input files, which
// in the modelled program already exist when the run starts, so it charges
// no time on any backend (like stores through Image).
//
// fill must be a pure function of i. It returns chunkBytes bytes: either
// buf after overwriting all of it (buf is reused and still holds an
// earlier chunk), or bytes it already holds and never mutates, such as a
// slice of a memoized input, which are stored without a copy. Up to
// GOMAXPROCS calls run at once, each with its own buf, so fill may only
// read shared state. Stores into the image are serialized, and the image
// does not depend on their order. chunkBytes must be a multiple of the
// word size.
//
// In a shadow replay (ShadowSetup) LoadInput returns at once: the replay's
// image is thrown away, and the allocations that place the input happen
// in Setup around the call, so skipping it keeps addresses in agreement.
func (c *SeqCtx) LoadInput(addr uva.Addr, chunks, chunkBytes int, fill func(i int, buf []byte) []byte) {
	if c.shadow || chunks <= 0 {
		return
	}
	var (
		next     atomic.Int64 // next chunk to fill
		storeMu  sync.Mutex   // mem.Image is not safe for concurrent writers
		wg       sync.WaitGroup
		failOnce sync.Once
		failure  any
	)
	store := func(i int, chunk []byte) {
		storeMu.Lock()
		defer storeMu.Unlock()
		c.img.StoreBytes(addr+uva.Addr(i*chunkBytes), chunk)
	}
	load := func() {
		defer func() {
			// A panicking fill stops every loader and resurfaces on the
			// calling goroutine, as it would from a sequential Setup.
			if r := recover(); r != nil {
				failOnce.Do(func() { failure = r })
				next.Store(int64(chunks))
			}
		}()
		buf := make([]byte, chunkBytes)
		for i := int(next.Add(1) - 1); i < chunks; i = int(next.Add(1) - 1) {
			chunk := fill(i, buf)
			if len(chunk) != chunkBytes {
				panic(fmt.Sprintf("core: LoadInput fill(%d) returned %d bytes, want %d", i, len(chunk), chunkBytes))
			}
			store(i, chunk)
		}
	}
	helpers := min(runtime.GOMAXPROCS(0), chunks) - 1
	wg.Add(helpers)
	for range helpers {
		go func() {
			defer wg.Done()
			load()
		}()
	}
	load()
	wg.Wait()
	if failure != nil {
		panic(failure)
	}
}

// ShadowSetup runs prog's Setup the way a net daemon that does not host the
// commit rank replays it: on an inert clock, into a throwaway image, with
// every LoadInput skipped. It leaves prog's state — the arena address of
// everything Setup allocated — as the real Setup on the commit unit does.
func ShadowSetup(cfg Config, prog Program) {
	prog.Setup(&SeqCtx{cfg: cfg, proc: shadowProc{}, img: mem.NewImage(nil), arena: uva.NewArena(0), shadow: true})
}
