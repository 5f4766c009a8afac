// Package costmodel is the analytical fast path of the two-fidelity
// sweep pipeline: a per-invocation cycle and off-chip-traffic estimator
// that is a linear function of closed-form features — the same
// quantities the Table-3 featurizer senses (footprint, reuse, coherence
// mode, protocol obligations, mesh distance, concurrency) — fitted by
// least squares against cycle-accurate simulation results. Screening a
// (scenario × policy) grid cell through the model costs microseconds
// where full simulation costs seconds; the fitted model carries its
// held-out calibration error so consumers can decide which cells are
// close enough to escalate back to the cycle-accurate simulator.
//
// Everything here is deterministic: feature extraction, fitting, and
// estimation are pure functions evaluated in fixed iteration order, so
// the same calibration inputs produce bit-identical coefficients on any
// machine and any worker count.
package costmodel

import (
	"fmt"

	"cohmeleon/internal/acc"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/soc/protocol"
)

// NumFeatures is the dimensionality of the feature vector.
const NumFeatures = 20

// Feature indices. Line-count features are in cache lines; cycle
// features in cycles; byte features in bytes.
const (
	fIntercept     = iota // 1
	fPages                // TLB pages loaded per invocation
	fCompute              // datapath cycles (closed-form from the access plan)
	fLinesNonCoh          // transferred lines under non-coherent DMA
	fLinesLLCCoh          // transferred lines under LLC-coherent DMA
	fLinesCohDMA          // transferred lines under coherent DMA
	fLinesFullyCoh        // transferred lines under full coherence
	fWriteLines           // written lines (all modes)
	fBursts               // DRAM-latency events (burst count)
	fFlushPriv            // lines walked by required private-cache flushes
	fFlushLLC             // lines walked by required LLC flushes
	fRecallLines          // lines subject to hardware owner recall checks
	fHopLines             // transferred lines × mean acc→mem-tile hop distance
	fSpillLines           // lines beyond one LLC slice, for LLC-bound modes
	fOccupancy            // transferred lines × concurrent threads beyond self
	fFootprint            // raw dataset lines
	fModeNonCoh           // mode share under non-coherent DMA (mode-specific intercept)
	fModeLLCCoh           // mode share under LLC-coherent DMA
	fModeCohDMA           // mode share under coherent DMA
	fModeFullyCoh         // mode share under full coherence
)

// FeatureVec is one invocation's feature vector. Callers own the
// scratch: Features fills it in place and Estimate reads it, so the
// screening hot path allocates nothing.
type FeatureVec [NumFeatures]float64

// Extractor derives feature vectors for one SoC configuration. Build
// one per configuration and reuse it across every invocation estimate;
// construction precomputes the placement-derived distances and protocol
// rules so Features itself is allocation-free.
type Extractor struct {
	cfg    *soc.Config
	rules  protocol.Rules
	dist   []float64 // mean Manhattan distance acc→mem tiles, config order
	accIdx map[string]int
}

// NewExtractor prepares feature extraction for a configuration.
func NewExtractor(cfg *soc.Config) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rules, err := protocol.Lookup(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	e := &Extractor{
		cfg:    cfg,
		rules:  rules,
		dist:   soc.AccMemDistances(cfg),
		accIdx: make(map[string]int, len(cfg.Accs)),
	}
	for i := range cfg.Accs {
		e.accIdx[cfg.Accs[i].InstName] = i
	}
	return e, nil
}

// Config returns the configuration the extractor was built for.
func (e *Extractor) Config() *soc.Config { return e.cfg }

// AccIndex resolves an accelerator instance name to its config index.
func (e *Extractor) AccIndex(inst string) (int, bool) {
	i, ok := e.accIdx[inst]
	return i, ok
}

// planShape is the closed-form aggregate of acc.Plan's chunked access
// schedule: how many lines one invocation transfers, in how many
// bursts, and how much datapath compute it performs. It mirrors
// NewPlan/Next arithmetic exactly, minus the irregular pattern's random
// positions (which affect which lines are touched, not how many).
type planShape struct {
	lines      int64 // dataset lines
	readLines  int64 // per-pass transferred read lines
	writeLines int64 // total written lines across the invocation
	bursts     int64 // total DMA bursts (DRAM latency events)
	passes     int64
	compute    float64 // total datapath cycles
}

// shapeFor computes the closed-form plan aggregate for (spec,
// footprint), in fixed arithmetic order.
func shapeFor(a *soc.AccInstance, footprintBytes int64) planShape {
	spec := a.Spec
	var s planShape
	s.lines = (footprintBytes + mem.LineBytes - 1) / mem.LineBytes
	readRegion := s.lines
	if !spec.InPlace {
		readRegion = int64(float64(s.lines)*spec.ReadFraction + 0.5)
		if readRegion < 1 {
			readRegion = 1
		}
		if readRegion > s.lines {
			readRegion = s.lines
		}
	}
	chunk := spec.PLMBytes / mem.LineBytes
	if chunk > readRegion {
		chunk = readRegion
	}
	if chunk < 1 {
		chunk = 1
	}
	s.passes = int64(spec.Reuse(footprintBytes, spec.PLMBytes))
	if s.passes < 1 {
		s.passes = 1
	}

	fullChunks := readRegion / chunk
	rem := readRegion % chunk

	// Per-pass read lines and burst counts, by pattern.
	var readsPerPass, burstsPerPass int64
	switch spec.Pattern {
	case acc.Strided:
		readsPerPass = readRegion
		burstsPerPass = readRegion // single-line bursts
	case acc.Irregular:
		t := func(n int64) int64 {
			x := int64(float64(n)*spec.AccessFraction + 0.5)
			if x < 1 {
				x = 1
			}
			return x
		}
		readsPerPass = fullChunks * t(chunk)
		if rem > 0 {
			readsPerPass += t(rem)
		}
		burstsPerPass = readsPerPass // single-line gathers
	default: // streaming
		readsPerPass = readRegion
		b := int64(spec.BurstLines)
		burstsPerPass = fullChunks * ((chunk + b - 1) / b)
		if rem > 0 {
			burstsPerPass += (rem + b - 1) / b
		}
	}
	s.readLines = readsPerPass

	// Writes: in-place specs drain each chunk every pass; out-of-place
	// specs stream the disjoint write region once, on the final pass.
	writeShare := (1 - spec.ReadFraction) / spec.ReadFraction
	burst := int64(spec.BurstLines)
	var writeTotal, writeBursts int64
	if spec.InPlace {
		w := func(n, reads int64) int64 {
			wl := int64(float64(reads)*writeShare + 0.5)
			if wl > n {
				wl = n
			}
			return wl
		}
		var perChunkReads int64
		switch spec.Pattern {
		case acc.Irregular:
			perChunkReads = int64(float64(chunk)*spec.AccessFraction + 0.5)
			if perChunkReads < 1 {
				perChunkReads = 1
			}
		default:
			perChunkReads = chunk
		}
		wFull := w(chunk, perChunkReads)
		writeTotal = fullChunks * wFull
		writeBursts = fullChunks * ((wFull + burst - 1) / burst)
		if rem > 0 {
			var remReads int64
			switch spec.Pattern {
			case acc.Irregular:
				remReads = int64(float64(rem)*spec.AccessFraction + 0.5)
				if remReads < 1 {
					remReads = 1
				}
			default:
				remReads = rem
			}
			wRem := w(rem, remReads)
			writeTotal += wRem
			writeBursts += (wRem + burst - 1) / burst
		}
		writeTotal *= s.passes
		writeBursts *= s.passes
	} else if s.lines > readRegion {
		writeTotal = s.lines - readRegion
		writeBursts = (writeTotal + burst - 1) / burst
	}
	s.writeLines = writeTotal
	s.bursts = burstsPerPass*s.passes + writeBursts
	s.compute = spec.ComputePerByte * float64(s.readLines*s.passes*mem.LineBytes)
	return s
}

// Features fills x with the feature vector for one invocation:
// accelerator acc (config index) executing action act on a dataset of
// footprintBytes, with threads software threads concurrently active in
// the phase. It never allocates.
func (e *Extractor) Features(acc int, act soc.Action, footprintBytes int64, threads int, x *FeatureVec) {
	s := shapeFor(&e.cfg.Accs[acc], footprintBytes)
	e.shapedFeatures(acc, act, footprintBytes, threads, &s, x)
}

// shapedFeatures is Features over the plan shape of (acc,
// footprintBytes), which does not depend on the action: a caller
// featurizing one invocation under several actions computes it once.
func (e *Extractor) shapedFeatures(acc int, act soc.Action, footprintBytes int64, threads int, s *planShape, x *FeatureVec) {
	transferred := float64(s.readLines*s.passes + s.writeLines)

	for i := range x {
		x[i] = 0
	}
	x[fIntercept] = 1
	x[fPages] = float64((footprintBytes + mem.PageBytes - 1) / mem.PageBytes)
	x[fCompute] = s.compute
	x[fWriteLines] = float64(s.writeLines)
	x[fBursts] = float64(s.bursts)
	x[fHopLines] = transferred * e.dist[acc]
	x[fFootprint] = float64(s.lines)

	// Split actions assign the hot (leading, L2-sized) region and the
	// cold remainder to distinct modes; transferred lines, flush
	// obligations, recall checks and spill attribute proportionally.
	hot, cold := act.Hot(), act.Cold()
	hotShare := 1.0
	if act.IsSplit() {
		hotLines := e.cfg.L2Bytes() / mem.LineBytes
		if hotLines > s.lines {
			hotLines = s.lines
		}
		hotShare = float64(hotLines) / float64(s.lines)
	}
	modeLines := [soc.NumModes]float64{}
	modeLines[hot] += transferred * hotShare
	if act.IsSplit() {
		modeLines[cold] += transferred * (1 - hotShare)
	}
	x[fLinesNonCoh] = modeLines[soc.NonCohDMA]
	x[fLinesLLCCoh] = modeLines[soc.LLCCohDMA]
	x[fLinesCohDMA] = modeLines[soc.CohDMA]
	x[fLinesFullyCoh] = modeLines[soc.FullyCoh]

	// Mode-specific intercepts: each mode's share of the invocation's
	// fixed (size-independent) cost, so systematic per-mode constants the
	// shared intercept can't express fit cleanly.
	modeShare := [soc.NumModes]float64{}
	modeShare[hot] += hotShare
	if act.IsSplit() {
		modeShare[cold] += 1 - hotShare
	}
	x[fModeNonCoh] = modeShare[soc.NonCohDMA]
	x[fModeLLCCoh] = modeShare[soc.LLCCohDMA]
	x[fModeCohDMA] = modeShare[soc.CohDMA]
	x[fModeFullyCoh] = modeShare[soc.FullyCoh]

	// Protocol obligations: a split invocation owes the union of its two
	// regions' flushes over the whole buffer (mirroring esp.invoke).
	if e.rules.PrivateFlush[hot] || (act.IsSplit() && e.rules.PrivateFlush[cold]) {
		x[fFlushPriv] = float64(s.lines)
	}
	if e.rules.LLCFlush[hot] || (act.IsSplit() && e.rules.LLCFlush[cold]) {
		x[fFlushLLC] = float64(s.lines)
	}
	recall := 0.0
	if e.rules.RecallOwners[hot] {
		recall += transferred * hotShare
	}
	if act.IsSplit() && e.rules.RecallOwners[cold] {
		recall += transferred * (1 - hotShare)
	}
	x[fRecallLines] = recall

	// LLC pressure: lines beyond one slice thrash the partition for
	// LLC-bound modes.
	spill := s.lines - e.cfg.LLCSliceBytes()/mem.LineBytes
	if spill > 0 {
		llcShare := 0.0
		if e.rules.UsesLLC[hot] {
			llcShare += hotShare
		}
		if act.IsSplit() && e.rules.UsesLLC[cold] {
			llcShare += 1 - hotShare
		}
		x[fSpillLines] = float64(spill) * llcShare
	}

	if threads > 1 {
		x[fOccupancy] = transferred * float64(threads-1)
	}
}

// FeatureName names a feature index (reports and debugging).
func FeatureName(i int) string {
	names := [NumFeatures]string{
		"intercept", "pages", "compute", "lines-non-coh", "lines-llc-coh",
		"lines-coh-dma", "lines-fully-coh", "write-lines", "bursts",
		"flush-priv", "flush-llc", "recall-lines", "hop-lines",
		"spill-lines", "occupancy", "footprint",
		"mode-non-coh", "mode-llc-coh", "mode-coh-dma", "mode-fully-coh",
	}
	if i < 0 || i >= NumFeatures {
		return fmt.Sprintf("feature(%d)", i)
	}
	return names[i]
}
