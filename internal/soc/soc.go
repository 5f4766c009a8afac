package soc

import (
	"fmt"

	"cohmeleon/internal/acc"
	"cohmeleon/internal/cache"
	"cohmeleon/internal/mem"
	"cohmeleon/internal/noc"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc/protocol"
)

// MemTile is a memory tile: one LLC partition with directory state, its
// pipeline port, and the DRAM controller behind it.
type MemTile struct {
	Part  int // partition index
	Coord noc.Coord
	LLC   *cache.Directory
	Port  *sim.Resource
	DRAM  *mem.Controller
}

// CPUTile is a processor tile; its private L2 lives in the agent table.
type CPUTile struct {
	ID    int
	Coord noc.Coord
	Agent int
}

// AccTile is an accelerator tile: the accelerator spec plus its socket
// state. Agent is the coherent-agent index of the private cache, or
// NoAgent when the tile has none (FullyCoh unavailable).
type AccTile struct {
	ID       int
	InstName string
	Spec     *acc.Spec
	Coord    noc.Coord
	Agent    int
	// Busy serializes invocations: an LCA runs one task at a time.
	Busy *sim.Semaphore

	// Cumulative hardware monitor counters (per-invocation values are
	// returned by RunAccelerator).
	TotalInvocations int64
	TotalActive      sim.Cycles
	TotalComm        sim.Cycles
}

// HasPrivateCache reports whether the fully-coherent mode is available.
func (a *AccTile) HasPrivateCache() bool { return a.Agent != NoAgent }

// AvailableModes returns the coherence modes this tile supports.
func (a *AccTile) AvailableModes() []Mode {
	if a.HasPrivateCache() {
		return []Mode{NonCohDMA, LLCCohDMA, CohDMA, FullyCoh}
	}
	return []Mode{NonCohDMA, LLCCohDMA, CohDMA}
}

// NoAgent marks tiles without a private cache.
const NoAgent = -1

// agent is one coherent agent: a private cache, its port, and its mesh
// position. CPUs and cache-equipped accelerators are agents.
type agent struct {
	name  string
	coord noc.Coord
	cache *cache.Cache
	port  *sim.Resource
}

// cohPath bundles the four directed coherence routes between one agent
// and one memory tile. Every simulated coherence message travels one of
// these, so the routes are resolved once at construction and the hot
// flows send on them directly.
type cohPath struct {
	req noc.Path // agent -> mem: request headers (coh-req plane)
	rsp noc.Path // mem -> agent: data responses (coh-rsp plane)
	fwd noc.Path // mem -> agent: recalls and invalidations (coh-fwd plane)
	wb  noc.Path // agent -> mem: dirty data returns (coh-rsp plane)
}

// dmaPath bundles the three directed DMA routes between one accelerator
// tile and one memory tile.
type dmaPath struct {
	req  noc.Path // acc -> mem: request headers (dma-req plane)
	up   noc.Path // acc -> mem: write payloads (dma-data plane)
	down noc.Path // mem -> acc: read payloads (dma-data plane)
}

// SoC is a fully assembled simulated system.
type SoC struct {
	Cfg *Config
	P   Params
	// rules is the active coherence protocol, resolved from
	// Cfg.Protocol at build time; every flow and flush-obligation
	// decision reads it.
	rules protocol.Rules
	Eng   *sim.Engine
	Mesh  *noc.Mesh
	Map   *mem.AddressMap
	Heap  *mem.Allocator

	Mem  []*MemTile
	CPUs []*CPUTile
	Accs []*AccTile

	// CPUPool limits concurrent software execution to the CPU count.
	CPUPool *sim.Semaphore

	agents []agent
	// Precomputed NoC routes: cohPaths[agentID*len(Mem)+part] and
	// dmaPaths[accID*len(Mem)+part]. See cohPath/dmaPath.
	cohPaths    []cohPath
	dmaPaths    []dmaPath
	missScratch []mem.LineAddr // reused by cachedGroupAccess
	// Run-batched flow scratch (one simulation goroutine at a time, and
	// the group flows never yield, so sharing is safe): the directory
	// run-outcome buffer, the materialized line list of a DMA group, and
	// the deferred private-cache victims of a write fill.
	dirRun        cache.DirRun
	groupScratch  []mem.LineAddr
	l2VictScratch []cache.Victim
	// refCoherence forces the per-line reference flows (coherence_ref.go)
	// everywhere; the property tests use it to pit the batched flows
	// against the reference on otherwise-identical SoCs.
	refCoherence bool
	// Flush scratch, reused across flush calls (safe for the same reason
	// as missScratch: one simulation goroutine runs at a time and the
	// flush helpers never yield). flushDirty has one slice per partition.
	flushScratch []mem.LineAddr
	flushDirty   [][]mem.LineAddr
	// Fine-grain split scratch: the hot- and cold-region sub-ranges of
	// one chunk's transfer list (transfer).
	splitHotScratch  []acc.LineRange
	splitColdScratch []acc.LineRange
	// Run-resolution table for the buffer most recently used by
	// doTransfers: logical page -> extent index, plus the logical line
	// prefix of each extent. Rebuilt (O(pages)) whenever the buffer
	// changes; resolves any logical offset to its extent in O(1) instead
	// of walking the extent list per range.
	runBuf  *mem.Buffer
	runExt  []int32
	runPre  []int64
	runHome []*MemTile // home tile per extent (an extent never crosses partitions)
}

// llcAssoc and l2Assoc fix the cache geometries (ESP uses set-associative
// caches; exact associativity is not evaluated in the paper).
const (
	llcAssoc = 8
	l2Assoc  = 4
)

// Build assembles the SoC described by the configuration on a fresh
// simulation engine.
func (c *Config) Build() (*SoC, error) { return c.BuildOn(sim.NewEngine()) }

// BuildOn assembles the SoC on the given engine, which must be idle — a
// fresh engine, or one whose previous run completed and that has been
// Reset. Harnesses use it to reuse one kernel (its event heap, ready
// ring, and warmed capacity) across the many fresh-SoC trials of an
// experiment fan-out.
func (c *Config) BuildOn(eng *sim.Engine) (*SoC, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rules, err := protocol.Lookup(c.Protocol)
	if err != nil {
		return nil, err // unreachable after Validate, but stay robust
	}
	p := c.Params
	s := &SoC{Cfg: c, P: p, rules: rules, Eng: eng}
	s.Mesh = noc.NewMesh(c.MeshW, c.MeshH)
	s.Map = mem.NewAddressMap(c.MemTiles, p.DRAMPartitionMB<<20)
	s.Heap = mem.NewAllocator(s.Map)
	s.CPUPool = sim.NewSemaphore(s.Eng, "cpus", c.CPUs)

	coords := placeTiles(c)
	for i := 0; i < c.MemTiles; i++ {
		s.Mem = append(s.Mem, &MemTile{
			Part:  i,
			Coord: coords.mem[i],
			LLC:   cache.NewDirectory(fmt.Sprintf("llc%d", i), c.LLCSliceBytes(), llcAssoc),
			Port:  new(sim.Resource),
			DRAM:  mem.NewController(i, p.DRAMLatencyCycles, p.DRAMPerLineCycles),
		})
	}
	for i := 0; i < c.CPUs; i++ {
		aid := s.addAgent(fmt.Sprintf("cpu%d", i), coords.cpu[i], c.L2Bytes())
		s.CPUs = append(s.CPUs, &CPUTile{ID: i, Coord: coords.cpu[i], Agent: aid})
	}
	for i, inst := range c.Accs {
		aid := NoAgent
		if inst.PrivateCache {
			aid = s.addAgent(inst.InstName, coords.acc[i], c.L2Bytes())
		}
		s.Accs = append(s.Accs, &AccTile{
			ID:       i,
			InstName: inst.InstName,
			Spec:     inst.Spec,
			Coord:    coords.acc[i],
			Agent:    aid,
			Busy:     sim.NewSemaphore(s.Eng, inst.InstName+"-busy", 1),
		})
	}
	if len(s.agents) > 64 {
		return nil, fmt.Errorf("soc %s: %d coherent agents exceed directory bitmask width", c.Name, len(s.agents))
	}
	s.buildPaths()
	return s, nil
}

// buildPaths resolves every (agent, memory tile) and (accelerator,
// memory tile) route pair once. The tables are small — tiles² at most —
// and turn each simulated message into a bare link walk.
func (s *SoC) buildPaths() {
	for ai := range s.agents {
		ag := &s.agents[ai]
		for _, mt := range s.Mem {
			s.cohPaths = append(s.cohPaths, cohPath{
				req: s.Mesh.NewPath(noc.PlaneCohReq, ag.coord, mt.Coord),
				rsp: s.Mesh.NewPath(noc.PlaneCohRsp, mt.Coord, ag.coord),
				fwd: s.Mesh.NewPath(noc.PlaneCohFwd, mt.Coord, ag.coord),
				wb:  s.Mesh.NewPath(noc.PlaneCohRsp, ag.coord, mt.Coord),
			})
		}
	}
	for _, a := range s.Accs {
		for _, mt := range s.Mem {
			s.dmaPaths = append(s.dmaPaths, dmaPath{
				req:  s.Mesh.NewPath(noc.PlaneDMAReq, a.Coord, mt.Coord),
				up:   s.Mesh.NewPath(noc.PlaneDMAData, a.Coord, mt.Coord),
				down: s.Mesh.NewPath(noc.PlaneDMAData, mt.Coord, a.Coord),
			})
		}
	}
}

// cohPathTo returns the coherence routes between an agent and a
// memory tile.
func (s *SoC) cohPathTo(agentID, part int) *cohPath {
	return &s.cohPaths[agentID*len(s.Mem)+part]
}

// dmaPathTo returns the DMA routes between an accelerator tile and a
// memory tile.
func (s *SoC) dmaPathTo(accID, part int) *dmaPath {
	return &s.dmaPaths[accID*len(s.Mem)+part]
}

func (s *SoC) addAgent(name string, coord noc.Coord, l2Bytes int64) int {
	id := len(s.agents)
	s.agents = append(s.agents, agent{
		name:  name,
		coord: coord,
		cache: cache.New(name+"-l2", l2Bytes, l2Assoc),
		port:  new(sim.Resource),
	})
	return id
}

// Protocol returns the active coherence-protocol rules.
func (s *SoC) Protocol() protocol.Rules { return s.rules }

// NeedsPrivateFlush reports whether the active protocol requires a
// software flush of private caches before an invocation in the mode.
func (s *SoC) NeedsPrivateFlush(m Mode) bool { return s.rules.PrivateFlush[m] }

// NeedsLLCFlush reports whether the active protocol requires a
// software flush of the LLC before an invocation in the mode.
func (s *SoC) NeedsLLCFlush(m Mode) bool { return s.rules.LLCFlush[m] }

// AgentCache exposes an agent's private cache (for tests and monitors).
func (s *SoC) AgentCache(id int) *cache.Cache { return s.agents[id].cache }

// Agents returns the number of coherent agents.
func (s *SoC) Agents() int { return len(s.agents) }

// AccByName returns the accelerator tile with the given instance name.
func (s *SoC) AccByName(inst string) (*AccTile, error) {
	for _, a := range s.Accs {
		if a.InstName == inst {
			return a, nil
		}
	}
	return nil, fmt.Errorf("soc %s: no accelerator instance %q", s.Cfg.Name, inst)
}

// AccsBySpec returns all tiles whose spec name matches.
func (s *SoC) AccsBySpec(specName string) []*AccTile {
	var out []*AccTile
	for _, a := range s.Accs {
		if a.Spec.Name == specName {
			out = append(out, a)
		}
	}
	return out
}

// homeTile returns the memory tile owning the line.
func (s *SoC) homeTile(line mem.LineAddr) *MemTile {
	return s.Mem[s.Map.Home(line)]
}

// placement assigns mesh coordinates: memory tiles on the corners (then
// remaining edge cells), as ESP places them for channel balance; CPUs,
// the auxiliary tile, and accelerators fill the remaining cells
// row-major. The layout is deterministic for a given configuration.
type placement struct {
	mem []noc.Coord
	cpu []noc.Coord
	acc []noc.Coord
}

// AccMemDistances returns, for each accelerator instance in
// configuration order, the mean Manhattan hop distance to the memory
// tiles under the deterministic placement Build uses. Analytical cost
// models consume it without assembling a SoC; the values match the
// coordinates a built SoC's tiles would carry because both derive from
// placeTiles. The configuration must be valid.
func AccMemDistances(c *Config) []float64 {
	pl := placeTiles(c)
	out := make([]float64, len(pl.acc))
	for i, a := range pl.acc {
		sum := 0
		for _, m := range pl.mem {
			dx, dy := a.X-m.X, a.Y-m.Y
			if dx < 0 {
				dx = -dx
			}
			if dy < 0 {
				dy = -dy
			}
			sum += dx + dy
		}
		out[i] = float64(sum) / float64(len(pl.mem))
	}
	return out
}

func placeTiles(c *Config) placement {
	w, h := c.MeshW, c.MeshH
	taken := make(map[noc.Coord]bool)
	var pl placement

	corners := []noc.Coord{{X: 0, Y: 0}, {X: w - 1, Y: 0}, {X: 0, Y: h - 1}, {X: w - 1, Y: h - 1}}
	for _, co := range corners {
		if len(pl.mem) == c.MemTiles {
			break
		}
		if !taken[co] {
			taken[co] = true
			pl.mem = append(pl.mem, co)
		}
	}
	// More than four memory tiles: continue along the top and bottom edges.
	for x := 1; len(pl.mem) < c.MemTiles && x < w-1; x++ {
		for _, y := range []int{0, h - 1} {
			co := noc.Coord{X: x, Y: y}
			if len(pl.mem) < c.MemTiles && !taken[co] {
				taken[co] = true
				pl.mem = append(pl.mem, co)
			}
		}
	}

	next := func() noc.Coord {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				co := noc.Coord{X: x, Y: y}
				if !taken[co] {
					taken[co] = true
					return co
				}
			}
		}
		panic("soc: mesh full during placement (Validate should have caught this)")
	}
	for i := 0; i < c.CPUs; i++ {
		pl.cpu = append(pl.cpu, next())
	}
	next() // auxiliary tile (UART, interrupt controller): occupies a cell
	for range c.Accs {
		pl.acc = append(pl.acc, next())
	}
	return pl
}
