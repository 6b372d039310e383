package core

import (
	"bytes"
	"slices"
	"sync/atomic"
	"testing"

	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// inputProg's Setup allocates around two LoadInput calls: one filling
// reused buffers, one returning bytes it holds. The chunk size is
// word-aligned but not page-aligned, so neighbouring chunks share pages and
// the image only comes out right if store order does not matter.
type inputProg struct {
	chunks    int
	fill      func(i int, buf []byte) []byte
	pre, post uva.Addr
	in, one   uva.Addr
}

const inputChunkBytes = 1000

func inputFill(i int, buf []byte) []byte {
	for k := range buf {
		buf[k] = byte(i*7 + k)
	}
	return buf
}

var heldChunk = inputFill(0, make([]byte, inputChunkBytes))

func (p *inputProg) Setup(ctx *SeqCtx) {
	p.pre = ctx.AllocWords(3)
	p.in = ctx.Alloc(int64(p.chunks * inputChunkBytes))
	ctx.LoadInput(p.in, p.chunks, inputChunkBytes, p.fill)
	p.one = ctx.Alloc(inputChunkBytes)
	ctx.LoadInput(p.one, 1, inputChunkBytes, func(int, []byte) []byte { return heldChunk })
	p.post = ctx.AllocWords(1)
	ctx.Store(p.post, 1)
}

func (p *inputProg) Stage(*Ctx, int, uint64) bool { return false }
func (p *inputProg) SeqIter(*SeqCtx, uint64)      {}

// TestLoadInput checks that every chunk is filled exactly once and lands
// at its address, for chunk counts below, at and above any GOMAXPROCS.
func TestLoadInput(t *testing.T) {
	for _, chunks := range []int{1, 2, 37} {
		calls := make([]atomic.Int32, chunks)
		p := &inputProg{chunks: chunks, fill: func(i int, buf []byte) []byte {
			calls[i].Add(1)
			return inputFill(i, buf)
		}}
		img := mem.NewImage(nil)
		p.Setup(&SeqCtx{cfg: DefaultConfig(4, pipeline.DSWP("DOALL", "S")), proc: shadowProc{}, img: img, arena: uva.NewArena(0)})
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Errorf("chunks=%d: chunk %d filled %d times, want once", chunks, i, n)
			}
		}
		want := make([]byte, chunks*inputChunkBytes)
		for i := 0; i < chunks; i++ {
			inputFill(i, want[i*inputChunkBytes:(i+1)*inputChunkBytes])
		}
		if got := img.LoadBytes(p.in, len(want)); !bytes.Equal(got, want) {
			t.Errorf("chunks=%d: loaded input differs from the fills", chunks)
		}
		if got := img.LoadBytes(p.one, inputChunkBytes); !bytes.Equal(got, want[:inputChunkBytes]) {
			t.Errorf("chunks=%d: single held chunk differs from its bytes", chunks)
		}
	}
}

// TestShadowSetupSkipsFill checks that a shadow replay calls no fill yet
// allocates exactly what the real Setup does.
func TestShadowSetupSkipsFill(t *testing.T) {
	cfg := DefaultConfig(4, pipeline.DSWP("DOALL", "S"))
	full := &inputProg{chunks: 9, fill: inputFill}
	if _, _, err := RunSequential(cfg, full, 0, nil); err != nil {
		t.Fatal(err)
	}
	shadow := &inputProg{chunks: 9, fill: func(int, []byte) []byte { panic("fill called in a shadow replay") }}
	ShadowSetup(cfg, shadow)
	got := []uva.Addr{shadow.pre, shadow.in, shadow.one, shadow.post}
	want := []uva.Addr{full.pre, full.in, full.one, full.post}
	if !slices.Equal(got, want) {
		t.Fatalf("shadow Setup allocated %v, full Setup %v", got, want)
	}
}

// TestLoadInputFillPanic checks that a fill panicking on a loader goroutine
// resurfaces on the caller, after every loader has stopped.
func TestLoadInputFillPanic(t *testing.T) {
	ctx := &SeqCtx{cfg: DefaultConfig(4, pipeline.DSWP("DOALL", "S")), proc: shadowProc{},
		img: mem.NewImage(nil), arena: uva.NewArena(0)}
	defer func() {
		if r := recover(); r != "bad chunk" {
			t.Fatalf("recovered %v, want the fill's panic", r)
		}
	}()
	ctx.LoadInput(ctx.Alloc(64*inputChunkBytes), 64, inputChunkBytes, func(i int, buf []byte) []byte {
		if i == 40 {
			panic("bad chunk")
		}
		return inputFill(i, buf)
	})
	t.Fatal("LoadInput returned despite a panicking fill")
}
