// Package chunker divides byte streams into chunks.
//
// Three chunkers are provided:
//
//   - Rabin: content-defined chunking (CDC) as in LBFS — a sliding-window
//     Rabin fingerprint is computed at every byte and a cut point is declared
//     where the fingerprint matches a mask, subject to minimum and maximum
//     chunk sizes. This is the basic chunking algorithm of the paper and of
//     all its baselines.
//   - TTTD: the "two thresholds, two divisors" refinement (Eshghi & Tang,
//     HPL-2005-30): a second, more permissive divisor records backup cut
//     candidates so that chunks forced out at the maximum size still end at
//     a content-defined position.
//   - Fixed: fixed-size partitioning (FSP) as in Venti — the boundary-shift
//     strawman.
//
// All chunkers reset their rolling window at each emitted cut. This makes
// chunking self-contained per chunk: re-chunking a stored big chunk in
// isolation reproduces exactly the cut points that small-chunking the stream
// from the big chunk's start would have produced — the property Bimodal and
// SubChunk re-chunking relies on.
package chunker

import (
	"fmt"
	"io"
	"math/bits"

	"mhdedup/internal/rabin"
)

// Chunk is one chunk of a stream. Data is owned by the caller once returned;
// chunkers never reuse returned buffers.
type Chunk struct {
	Data []byte
	Off  int64 // offset of Data[0] within the stream
}

// Size returns len(Data) as an int64 for offset arithmetic.
func (c Chunk) Size() int64 { return int64(len(c.Data)) }

// Chunker produces consecutive chunks of a stream. Next returns io.EOF after
// the final chunk. Implementations are not safe for concurrent use.
type Chunker interface {
	Next() (Chunk, error)
}

// Params configures a content-defined chunker.
type Params struct {
	// ECS is the expected chunk size in bytes — the paper's basic knob. The
	// achieved mean is approximately Min + 2^k clipped by Max, where k is
	// chosen as log2(ECS − Min); see Mask.
	ECS int

	// Min and Max bound the chunk size. Zero values default to ECS/4 and
	// ECS*4 respectively, the conventional CDC configuration.
	Min, Max int

	// Poly is the Rabin modulus; zero defaults to rabin.DefaultPoly.
	Poly rabin.Poly

	// WindowSize is the sliding-window width; zero defaults to
	// rabin.DefaultWindowSize.
	WindowSize int

	// Reference selects the per-byte reference implementations (Rabin,
	// FastCDC) in the NewCDC/NewGear factories instead of the
	// block-processed fast paths (FastRabin, FastGear). The two paths emit
	// bit-identical cut sequences — pinned by the conformance harness and
	// the golden vectors under testdata/ — so Reference exists for
	// differential testing and benchmarking, not because outputs differ.
	Reference bool
}

// withDefaults returns p with zero fields filled in and validates it.
func (p Params) withDefaults() (Params, error) {
	if p.ECS <= 0 {
		return p, fmt.Errorf("chunker: ECS must be positive, got %d", p.ECS)
	}
	if p.Min == 0 {
		p.Min = p.ECS / 4
	}
	if p.Max == 0 {
		p.Max = p.ECS * 4
	}
	if p.Min <= 0 || p.Min > p.ECS {
		return p, fmt.Errorf("chunker: Min %d out of range (0, ECS=%d]", p.Min, p.ECS)
	}
	if p.Max < p.ECS {
		return p, fmt.Errorf("chunker: Max %d below ECS %d", p.Max, p.ECS)
	}
	if p.Poly == 0 {
		p.Poly = rabin.DefaultPoly
	}
	if p.WindowSize == 0 {
		p.WindowSize = rabin.DefaultWindowSize
	}
	if p.Min < p.WindowSize {
		return p, fmt.Errorf("chunker: Min %d smaller than window size %d", p.Min, p.WindowSize)
	}
	return p, nil
}

// Bounds returns the resolved chunk-size bounds of p — Min and Max after
// defaults — or the validation error p would fail with. Every chunker
// built from p emits chunks of Min..Max bytes, except that a stream's
// final chunk may be shorter than Min.
func (p Params) Bounds() (min, max int, err error) {
	p, err = p.withDefaults()
	if err != nil {
		return 0, 0, err
	}
	return p.Min, p.Max, nil
}

// Mask returns the cut-point mask for p: k low bits set, where 2^k is the
// expected distance from Min to the cut so that the mean chunk size is close
// to ECS.
func (p Params) Mask() rabin.Poly {
	target := p.ECS - p.Min
	if target < 2 {
		target = 2
	}
	k := bits.Len(uint(target)) - 1
	return rabin.Poly(1)<<uint(k) - 1
}

// readFiller pulls bytes from an io.Reader into chunker buffers, tracking a
// sticky error.
type readFiller struct {
	r   io.Reader
	buf []byte
	pos int // next unread byte in buf
	n   int // valid bytes in buf
	err error
}

func newReadFiller(r io.Reader) *readFiller {
	return &readFiller{r: r, buf: make([]byte, 64<<10)}
}

// next returns the next byte. ok is false when the stream is exhausted or
// failed; check err() afterwards.
func (f *readFiller) next() (byte, bool) {
	blk := f.peek()
	if len(blk) == 0 {
		return 0, false
	}
	f.pos++
	return blk[0], true
}

// peek returns the unread buffered bytes, refilling from the reader when the
// buffer is drained. An empty result means the stream is exhausted or
// failed; check finalErr afterwards. The returned slice is valid until the
// next peek and must be released with consume — the block-processed
// chunkers scan it in place and copy out only the bytes of the chunk they
// emit.
func (f *readFiller) peek() []byte {
	if f.pos >= f.n {
		if f.err != nil {
			return nil
		}
		f.pos, f.n = 0, 0
		for f.n == 0 {
			n, err := f.r.Read(f.buf)
			f.n = n
			if err != nil {
				f.err = err
				break
			}
		}
		if f.n == 0 {
			return nil
		}
	}
	return f.buf[f.pos:f.n]
}

// consume marks n bytes of the last peek as read.
func (f *readFiller) consume(n int) {
	f.pos += n
}

// finalErr converts the sticky error for Next: io.EOF stays io.EOF, other
// errors pass through, nil means still readable.
func (f *readFiller) finalErr() error {
	if f.err == nil || f.err == io.EOF {
		return io.EOF
	}
	return f.err
}

// NewCDC returns the LBFS Rabin content-defined chunker over r: the
// block-processed FastRabin by default, the per-byte reference Rabin when
// p.Reference is set. Both emit bit-identical chunks; the engines and the
// re-chunking primitives construct through this factory so one Params knob
// flips the whole system between paths.
func NewCDC(r io.Reader, p Params) (Chunker, error) {
	if p.Reference {
		return NewRabin(r, p)
	}
	return NewFastRabin(r, p)
}

// NewGear returns the gear-hash (FastCDC-algorithm) chunker over r: the
// block-processed FastGear by default, the per-byte reference FastCDC when
// p.Reference is set. Both emit bit-identical chunks.
func NewGear(r io.Reader, p Params) (Chunker, error) {
	if p.Reference {
		return NewFastCDC(r, p)
	}
	return NewFastGear(r, p)
}
