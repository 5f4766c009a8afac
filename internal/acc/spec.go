// Package acc models fixed-function loosely-coupled accelerators by
// their communication behaviour. The paper observes that, from the rest
// of the SoC's viewpoint, an accelerator is characterized by its memory
// traffic — access pattern, DMA burst length, compute duration, data
// reuse, read/write ratio, stride, access fraction, and in-place storage
// — and builds a traffic generator over exactly those knobs. This
// package provides the same parameter set (Spec), a catalog of the
// twelve kernels used in the paper (catalog.go), and a Plan that expands
// a Spec and a workload footprint into the chunked, double-buffered
// access schedule executed by the accelerator socket.
package acc

import (
	"fmt"
	"io"

	"cohmeleon/internal/mem"
	"cohmeleon/internal/sim"
)

// Pattern is the memory access pattern of an accelerator.
type Pattern int

// Access patterns, as in the paper's traffic-generator parameter list.
const (
	Streaming Pattern = iota // long sequential bursts
	Strided                  // fixed-stride single-line accesses
	Irregular                // data-dependent, effectively random accesses
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Streaming:
		return "streaming"
	case Strided:
		return "strided"
	case Irregular:
		return "irregular"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// ReuseFunc returns the number of passes the accelerator makes over its
// dataset for a given footprint and scratchpad size. It lets a Spec
// express footprint-dependent reuse (e.g. merge sort's log-many passes).
type ReuseFunc func(footprintBytes, plmBytes int64) int

// ConstReuse returns a ReuseFunc that always makes n passes.
func ConstReuse(n int) ReuseFunc {
	if n < 1 {
		panic("acc: reuse passes must be ≥ 1")
	}
	return func(_, _ int64) int { return n }
}

// LogReuse returns a ReuseFunc making ~log2(footprint/plm)+base passes,
// the shape of multi-pass kernels such as merge sort or staged FFTs.
func LogReuse(base int) ReuseFunc {
	return func(footprint, plm int64) int {
		n := base
		for chunk := plm; chunk < footprint; chunk *= 2 {
			n++
		}
		if n < 1 {
			n = 1
		}
		return n
	}
}

// Spec describes an accelerator's communication profile. It carries no
// notion of coherence: the surrounding socket decides how its memory
// requests reach the hierarchy, exactly as in ESP.
type Spec struct {
	Name string

	Pattern Pattern

	// BurstLines is the DMA burst length in cache lines for streaming
	// accesses (strided and irregular patterns issue single-line bursts).
	BurstLines int

	// ComputePerByte is datapath cycles spent per byte processed; it sets
	// the compute/communication balance (MRI-Q high, SPMV low).
	ComputePerByte float64

	// ReadFraction is the read share of total traffic in (0, 1].
	ReadFraction float64

	// Reuse yields the number of passes over the dataset.
	Reuse ReuseFunc

	// StrideLines is the distance between consecutive accesses for the
	// Strided pattern, in lines.
	StrideLines int

	// AccessFraction is the fraction of lines touched per pass for the
	// Irregular pattern, in (0, 1].
	AccessFraction float64

	// InPlace reports whether outputs overwrite the input region. When
	// false, the logical buffer is split into a read region followed by a
	// disjoint write region.
	InPlace bool

	// PLMBytes is the private local memory (scratchpad) size; it bounds
	// the chunk processed per iteration and therefore what "fits in local
	// memory and is loaded only once".
	PLMBytes int64
}

// Validate reports configuration errors in the spec.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("acc: spec with empty name")
	case s.BurstLines < 1:
		return fmt.Errorf("acc %s: BurstLines %d < 1", s.Name, s.BurstLines)
	case s.ComputePerByte < 0:
		return fmt.Errorf("acc %s: negative ComputePerByte", s.Name)
	case s.ReadFraction <= 0 || s.ReadFraction > 1:
		return fmt.Errorf("acc %s: ReadFraction %g outside (0,1]", s.Name, s.ReadFraction)
	case s.Reuse == nil:
		return fmt.Errorf("acc %s: nil Reuse", s.Name)
	case s.Pattern == Strided && s.StrideLines < 1:
		return fmt.Errorf("acc %s: strided with StrideLines %d", s.Name, s.StrideLines)
	case s.Pattern == Irregular && (s.AccessFraction <= 0 || s.AccessFraction > 1):
		return fmt.Errorf("acc %s: irregular with AccessFraction %g", s.Name, s.AccessFraction)
	case s.PLMBytes < mem.LineBytes:
		return fmt.Errorf("acc %s: PLM %d smaller than a line", s.Name, s.PLMBytes)
	}
	return nil
}

// HashContent writes a canonical encoding of every behavioral field of
// the spec to w, for content-keyed memoization of simulation runs. The
// Reuse function cannot be encoded by value; callers that know the
// footprints a run will use must additionally hash Reuse's outputs at
// those footprints (see the experiment run cache), which pins its
// behavioral contribution exactly.
func (s *Spec) HashContent(w io.Writer) {
	fmt.Fprintf(w, "spec|%s|%d|%d|%g|%g|%d|%g|%t|%d\n",
		s.Name, s.Pattern, s.BurstLines, s.ComputePerByte, s.ReadFraction,
		s.StrideLines, s.AccessFraction, s.InPlace, s.PLMBytes)
}

// LineRange is a run of logical lines (offsets into the invocation's
// dataset, not physical addresses).
type LineRange struct {
	Start int64
	Lines int64
}

// ChunkPlan is one scratchpad-sized unit of work: the reads that fill
// the PLM, the compute on it, and the writes that drain results.
type ChunkPlan struct {
	Reads   []LineRange
	Writes  []LineRange
	Compute sim.Cycles
}

// Plan iterates the chunked access schedule of one invocation. Create
// with NewPlan; call Next until it returns false. Plans are single-use.
type Plan struct {
	spec       *Spec
	lines      int64 // total dataset lines
	readLines  int64 // logical read region [0, readLines)
	writeBase  int64 // logical start of write region
	writeLines int64
	chunkLines int64
	passes     int
	rng        *sim.RNG

	pass   int
	cursor int64 // lines of the read region consumed in this pass
}

// NewPlan builds the access schedule for a footprint of the given size.
// rng drives irregular access selection and must be non-nil for
// irregular specs.
func NewPlan(spec *Spec, footprintBytes int64, rng *sim.RNG) *Plan {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if footprintBytes <= 0 {
		panic(fmt.Sprintf("acc %s: footprint %d", spec.Name, footprintBytes))
	}
	lines := (footprintBytes + mem.LineBytes - 1) / mem.LineBytes
	p := &Plan{spec: spec, lines: lines, rng: rng}
	if spec.InPlace {
		p.readLines = lines
		p.writeBase = 0
		p.writeLines = lines
	} else {
		p.readLines = int64(float64(lines)*spec.ReadFraction + 0.5)
		if p.readLines < 1 {
			p.readLines = 1
		}
		if p.readLines > lines {
			p.readLines = lines
		}
		p.writeBase = p.readLines
		p.writeLines = lines - p.readLines
	}
	p.chunkLines = spec.PLMBytes / mem.LineBytes
	if p.chunkLines > p.readLines {
		p.chunkLines = p.readLines
	}
	if p.chunkLines < 1 {
		p.chunkLines = 1
	}
	p.passes = spec.Reuse(footprintBytes, spec.PLMBytes)
	if p.passes < 1 {
		p.passes = 1
	}
	return p
}

// Next fills out with the next chunk of work and reports whether one was
// produced. The slices inside out are reused across calls.
func (p *Plan) Next(out *ChunkPlan) bool {
	if p.pass >= p.passes {
		return false
	}
	out.Reads = out.Reads[:0]
	out.Writes = out.Writes[:0]

	n := p.chunkLines
	if remaining := p.readLines - p.cursor; n > remaining {
		n = remaining
	}
	start := p.cursor

	switch p.spec.Pattern {
	case Streaming:
		burst := int64(p.spec.BurstLines)
		for off := int64(0); off < n; off += burst {
			l := burst
			if off+l > n {
				l = n - off
			}
			out.Reads = append(out.Reads, LineRange{Start: start + off, Lines: l})
		}
	case Strided:
		stride := int64(p.spec.StrideLines)
		// Visit the chunk's lines in stride order: single-line bursts at
		// start, start+stride, ... wrapping through the chunk so exactly n
		// lines are touched.
		for lane := int64(0); lane < stride; lane++ {
			for off := lane; off < n; off += stride {
				out.Reads = append(out.Reads, LineRange{Start: start + off, Lines: 1})
			}
		}
	case Irregular:
		// Touch AccessFraction of the chunk's lines at random positions in
		// the whole read region (gather).
		touched := int64(float64(n)*p.spec.AccessFraction + 0.5)
		if touched < 1 {
			touched = 1
		}
		for i := int64(0); i < touched; i++ {
			out.Reads = append(out.Reads, LineRange{Start: p.rng.Int63n(p.readLines), Lines: 1})
		}
	}

	// Writes: the chunk's share of the write region, streamed as bursts.
	var readCount int64
	for _, r := range out.Reads {
		readCount += r.Lines
	}
	writeShare := (1 - p.spec.ReadFraction) / p.spec.ReadFraction
	wLines := int64(float64(readCount)*writeShare + 0.5)
	if p.spec.InPlace {
		if wLines > n {
			wLines = n
		}
		appendBursts(&out.Writes, start, wLines, int64(p.spec.BurstLines))
	} else if p.writeLines > 0 && p.passes > 0 {
		// Spread writes over the write region proportionally to read
		// progress; only the final pass drains outputs.
		if p.pass == p.passes-1 {
			wStart := p.writeBase + p.writeLines*p.cursor/p.readLines
			wEnd := p.writeBase + p.writeLines*(p.cursor+n)/p.readLines
			appendBursts(&out.Writes, wStart, wEnd-wStart, int64(p.spec.BurstLines))
		}
	}

	var processed int64
	for _, r := range out.Reads {
		processed += r.Lines
	}
	out.Compute = sim.Cycles(p.spec.ComputePerByte * float64(processed*mem.LineBytes))

	p.cursor += n
	if p.cursor >= p.readLines {
		p.cursor = 0
		p.pass++
	}
	return true
}

func appendBursts(dst *[]LineRange, start, lines, burst int64) {
	for off := int64(0); off < lines; off += burst {
		l := burst
		if off+l > lines {
			l = lines - off
		}
		*dst = append(*dst, LineRange{Start: start + off, Lines: l})
	}
}
