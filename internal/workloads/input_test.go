package workloads

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/uva"
)

// imageHash is FNV-1a over every resident page of img in page order: the
// page ID, then its words. Two images hash equal iff they hold the same
// bytes at the same addresses (zero pages included).
func imageHash(img *mem.Image) uint64 {
	var ids []uva.PageID
	pages := map[uva.PageID]*mem.Page{}
	img.ForEachResident(func(id uva.PageID, pg *mem.Page) {
		ids = append(ids, id)
		pages[id] = pg
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h = (h ^ uint64(id)) * prime
		for _, w := range pages[id].Words {
			h = (h ^ w) * prime
		}
	}
	return h
}

// setupImageHash runs only the program's Setup (a zero-iteration
// sequential run) and hashes the committed image it leaves.
func setupImageHash(t *testing.T, b *Benchmark, in Input) uint64 {
	t.Helper()
	prog := b.NewDSMTX(in, 0)
	_, img, err := core.RunSequential(coreDefaultFor(prog), prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return imageHash(img)
}

// TestSetupInputByteIdentity pins the committed image right after Setup
// for the benchmarks that bulk-load generated input, across two seeds and
// two scales (crc32 and bzip2 with misspeculation, so their corrupt-input
// markers are covered). The goldens predate parallel input loading, which
// may change how the bytes are produced and stored, never which bytes land
// where.
func TestSetupInputByteIdentity(t *testing.T) {
	golden := map[string]uint64{
		"crc32/scale1/seed42":     0xaf8974aef4373f51,
		"crc32/scale1/seed7":      0x2906a7e25e1b532b,
		"crc32/scale2/seed42":     0xf80e03d4c01e2d77,
		"crc32/scale2/seed7":      0x63f6fc815592d865,
		"256.bzip2/scale1/seed42": 0xbb2cb30f521fcacb,
		"256.bzip2/scale1/seed7":  0xfc5cf234a99df6b,
		"256.bzip2/scale2/seed42": 0xdfe2fcb3223cd865,
		"256.bzip2/scale2/seed7":  0x5286ac88b9d90244,
		"164.gzip/scale1/seed42":  0xaa3b310282acd87a,
		"164.gzip/scale1/seed7":   0x21f177982bc24d0,
		"164.gzip/scale2/seed42":  0x692b4b22e1da20fa,
		"164.gzip/scale2/seed7":   0x869663a3d9295f1e,
	}
	for _, name := range []string{"crc32", "256.bzip2", "164.gzip"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []int{1, 2} {
			for _, seed := range []uint64{42, 7} {
				in := Input{Scale: scale, Seed: seed}
				if name != "164.gzip" {
					in.MisspecRate = 0.02
				}
				key := fmt.Sprintf("%s/scale%d/seed%d", name, scale, seed)
				got := setupImageHash(t, b, in)
				if want := golden[key]; got != want {
					t.Errorf("%s: Setup image hash %#x, want %#x", key, got, want)
				}
			}
		}
	}
}

// bytes is the allocating generator the workloads used before rng.fill,
// kept verbatim as the oracle fill must reproduce (and as the tests'
// source of compressible data).
func (r *rng) bytes(n int) []byte {
	b := make([]byte, n)
	i := 0
	for i < n {
		if i > 64 && r.intn(2) == 0 {
			length := 6 + r.intn(18)
			off := 1 + r.intn(60)
			for k := 0; k < length && i < n; k++ {
				b[i] = b[i-off]
				i++
			}
			continue
		}
		b[i] = byte('a' + r.intn(26))
		i++
	}
	return b
}

// TestRNGFillMatchesBytes checks that fill writes exactly the stream bytes
// generates, over many seeds and lengths, into a buffer full of stale
// bytes — so fill overwrites all of dst, as LoadInput requires.
func TestRNGFillMatchesBytes(t *testing.T) {
	pick := newRNG(99)
	for trial := 0; trial < 500; trial++ {
		seed := pick.next()
		n := pick.intn(3 << 10)
		if trial%50 == 0 {
			n = crcFileBytes
		}
		dst := make([]byte, n)
		for i := range dst {
			dst[i] = 0xA5
		}
		newRNG(seed).fill(dst)
		if want := newRNG(seed).bytes(n); !bytes.Equal(dst, want) {
			t.Fatalf("seed %#x len %d: fill differs from bytes", seed, n)
		}
	}
}

// TestShadowSetupMatchesSetup replays every benchmark's Setup the way a
// net daemon without the commit rank does and requires the program state —
// every address Setup allocated — to equal the real Setup's, for both
// parallelizations and every invocation.
func TestShadowSetupMatchesSetup(t *testing.T) {
	in := Input{Scale: 1, Seed: 42, MisspecRate: 0.02}
	for _, b := range All() {
		for inv := 0; inv < max(b.Invocations, 1); inv++ {
			for _, p := range []Paradigm{DSMTX, TLS} {
				mk := b.NewDSMTX
				if p == TLS {
					mk = b.NewTLS
				}
				full, shadow := mk(in, inv), mk(in, inv)
				cfg := coreDefaultFor(full)
				if _, _, err := core.RunSequential(cfg, full, 0, nil); err != nil {
					t.Fatal(err)
				}
				core.ShadowSetup(cfg, shadow)
				if !reflect.DeepEqual(full, shadow) {
					t.Errorf("%s/%s inv %d: shadow Setup state %+v, full Setup %+v", b.Name, p, inv, shadow, full)
				}
			}
		}
	}
}

// TestGzipInputMemoBounded fills the gzip input memo past a small budget
// and checks that the oldest inputs go first, the memo stays within the
// budget, and an evicted input comes back byte-identical.
func TestGzipInputMemoBounded(t *testing.T) {
	const total = 3 << 16
	gzMemo.Lock()
	saved := gzMemo.budget
	gzMemo.budget = 2 * total
	gzMemo.Unlock()
	defer func() {
		gzMemo.Lock()
		gzMemo.budget = saved
		gzMemo.Unlock()
	}()
	const base = 1 << 40 // seeds no other test uses
	first := bytes.Clone(gzInput(base, total))
	for s := uint64(1); s <= 4; s++ {
		gzInput(base+s, total)
	}
	gzMemo.Lock()
	held, evicted := gzMemo.bytes, gzMemo.inputs[gzInputKey{base, total}] == nil
	gzMemo.Unlock()
	if held > 2*total {
		t.Errorf("memo holds %d bytes, budget %d", held, 2*total)
	}
	if !evicted {
		t.Error("oldest input still memoized past the budget")
	}
	if again := gzInput(base, total); !bytes.Equal(again, first) {
		t.Error("regenerated input differs from the evicted one")
	}
}
