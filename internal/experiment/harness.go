package experiment

import (
	"context"
	"fmt"
	"math"
	"sync"

	"cohmeleon/internal/core"
	"cohmeleon/internal/costmodel"
	"cohmeleon/internal/esp"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/scenario"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/stats"
	"cohmeleon/internal/workload"
)

// enginePool reuses simulation kernels across trials. Every trial still
// builds a fresh SoC (hardware state never survives a measurement), but
// the engine underneath — its event heap, ready ring, and coroutine
// wiring — carries no simulation state after a completed run, so
// Reset + reuse stops the fan-out from re-growing kernel storage per
// trial. Engines are returned only after a successful run: a deadlocked
// engine still owns parked coroutine stacks and is simply dropped.
var enginePool = sync.Pool{New: func() interface{} { return sim.NewEngine() }}

// pooledEngine returns an idle engine with the clock at zero.
func pooledEngine() *sim.Engine {
	e := enginePool.Get().(*sim.Engine)
	e.Reset()
	return e
}

// releaseEngine returns a drained engine to the pool. Only call it after
// Run returned nil.
func releaseEngine(e *sim.Engine) { enginePool.Put(e) }

// withProtocol applies the option's coherence-protocol selection to a
// constructed topology; every experiment routes its hand-built configs
// through it so -protocol reaches all of them.
func withProtocol(cfg *soc.Config, opt Options) *soc.Config {
	cfg.Protocol = opt.Protocol
	return cfg
}

// scenarioSpec is the default scenario spec with each scenario sized
// to minInv invocations. A -protocol selection becomes a single-entry
// axis, which pins every drawn SoC's protocol without consuming an RNG
// draw, so the topology stream is unchanged.
func scenarioSpec(opt Options, minInv int) scenario.Spec {
	spec := scenario.DefaultSpec()
	spec.MinInvocations = minInv
	if opt.Protocol != "" {
		spec.SoC.Protocols = []string{opt.Protocol}
	}
	return spec
}

// build builds a fresh SoC (hardware state never survives between
// measurements; policies may) on a pooled engine.
func build(cfg *soc.Config) (*soc.SoC, error) {
	s, err := cfg.BuildOn(pooledEngine())
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return s, nil
}

// runApp executes one application run of a policy — through the
// content-keyed run cache when the policy is memoizable (see memo.go),
// on a fresh SoC otherwise. The context is observed only here, at the
// run boundary: a cancelled experiment cuts out between app runs, never
// mid-simulation, so every result that exists is a complete one.
func runApp(ctx context.Context, cfg *soc.Config, pol esp.Policy, app *workload.App, seed uint64) (*workload.AppResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiment: run aborted: %w", err)
	}
	appRunMemo.mu.Lock()
	enabled := appRunMemo.enabled
	appRunMemo.mu.Unlock()
	if enabled {
		if key, ok := runCacheKey(cfg, pol, app, seed); ok {
			return appRunMemo.getOrRun(ctx, key, cfg, app, func() (*workload.AppResult, error) {
				return simulateApp(cfg, pol, app, seed)
			})
		}
	}
	return simulateApp(cfg, pol, app, seed)
}

// simulateApp is the uncached run: one application on a fresh SoC.
func simulateApp(cfg *soc.Config, pol esp.Policy, app *workload.App, seed uint64) (*workload.AppResult, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, err
	}
	res, err := workload.Run(esp.NewSystem(s, pol), app, seed)
	if err == nil {
		releaseEngine(s.Eng)
	}
	return res, err
}

// evaluator runs whole applications at one fidelity. Training, frozen
// testing and both grid cells are written once over it; fidelity is
// only the choice of implementation — simulator (cycle-accurate,
// memoized) or estimator (the calibrated analytical model).
type evaluator interface {
	// run measures pol on app and returns the result; the estimator's
	// results hold phase totals only.
	run(pol esp.Policy, app *workload.App, seed uint64) (*workload.AppResult, error)
	// train runs pol on app for the policy's sake alone: the result is
	// discarded, so an implementation may skip building it.
	train(pol esp.Policy, app *workload.App, seed uint64) error
}

// simulator evaluates on a fresh SoC of cfg through runApp.
type simulator struct {
	ctx context.Context
	cfg *soc.Config
}

func (s simulator) run(pol esp.Policy, app *workload.App, seed uint64) (*workload.AppResult, error) {
	return runApp(s.ctx, s.cfg, pol, app, seed)
}

func (s simulator) train(pol esp.Policy, app *workload.App, seed uint64) error {
	_, err := runApp(s.ctx, s.cfg, pol, app, seed)
	return err
}

// estimator evaluates through the analytical model. The model is
// deterministic and draws no randomness, so the seed is ignored.
// Screened results carry per-phase and app totals only, no invocation
// records: the sweep and learners cells read them through
// geoNormalized, which needs nothing else.
type estimator struct{ est *costmodel.Estimator }

// newEstimator pairs the fitted model with cfg's feature extractor.
func newEstimator(cfg *soc.Config, m *costmodel.Model) (estimator, error) {
	ex, err := costmodel.NewExtractor(cfg)
	if err != nil {
		return estimator{}, err
	}
	return estimator{costmodel.NewEstimator(ex, m)}, nil
}

func (e estimator) run(pol esp.Policy, app *workload.App, _ uint64) (*workload.AppResult, error) {
	return e.est.Run(pol, app)
}

func (e estimator) train(pol esp.Policy, app *workload.App, _ uint64) error {
	return e.est.Train(pol, app)
}

// trainCohmeleon runs the agent through iters training iterations of the
// training application (fresh SoC each iteration, as each FPGA run
// reboots the platform but the learned table persists).
func trainCohmeleon(ev evaluator, agent *core.Cohmeleon, train *workload.App, iters int, seed uint64) error {
	agent.Unfreeze()
	for i := 0; i < iters; i++ {
		if err := ev.train(agent, train, seed+uint64(i)); err != nil {
			return err
		}
		agent.EndIteration()
	}
	return nil
}

// freezer is implemented by learning policies that must be frozen for
// a measurement. Detection is by interface, not concrete type, so
// wrappers (e.g. the sweep's renamed transfer policy) stay transparent
// by forwarding these methods.
type freezer interface {
	Freeze()
	Unfreeze()
	Frozen() bool
}

// testPolicy evaluates a policy on the test application; learning
// policies are frozen for the measurement and restored afterwards.
func testPolicy(ev evaluator, pol esp.Policy, test *workload.App, seed uint64) (*workload.AppResult, error) {
	if agent, ok := pol.(freezer); ok {
		wasFrozen := agent.Frozen()
		agent.Freeze()
		defer func() {
			if !wasFrozen {
				agent.Unfreeze()
			}
		}()
	}
	return ev.run(pol, test, seed)
}

// profileHeterogeneous derives the fixed-heterogeneous assignment the
// way the paper does: profile each accelerator type in isolation under
// every mode while sweeping the workload footprint, then fix the mode
// with the best mean normalized execution time. The (spec, mode, size)
// profiling trials are independent — each simulates one accelerator
// alone on a fresh SoC — and fan out on the worker pool.
func profileHeterogeneous(cfg *soc.Config, opt Options) (*policy.FixedHeterogeneous, error) {
	classes := []workload.SizeClass{workload.Small, workload.Medium, workload.Large, workload.ExtraLarge}
	var specs, insts []string // one profiled instance per spec, in config order
	seen := make(map[string]bool)
	for _, inst := range cfg.Accs {
		if seen[inst.Spec.Name] {
			continue
		}
		seen[inst.Spec.Name] = true
		specs = append(specs, inst.Spec.Name)
		insts = append(insts, inst.InstName)
	}

	nc := len(classes)
	trials := len(specs) * int(soc.NumModes) * nc
	results := make([]isolationMeasurement, trials)
	if err := forEachOpt(opt, trials, func(i int) error {
		si := i / (int(soc.NumModes) * nc)
		mi := i / nc % int(soc.NumModes)
		ci := i % nc
		bytes := workload.ClassBytes(classes[ci], cfg)
		var err error
		results[i], err = isolatedInvocation(cfg, insts[si], bytes, soc.AllModes[mi], 1, opt.Seed)
		return err
	}); err != nil {
		return nil, err
	}

	assignment := make(map[string]soc.Mode)
	for si, specName := range specs {
		// Mean exec per mode, each size normalized against NonCohDMA so
		// sizes weigh equally.
		execs := make([][]float64, soc.NumModes) // [mode][size]
		for mi := range soc.AllModes {
			for ci := 0; ci < nc; ci++ {
				res := results[(si*int(soc.NumModes)+mi)*nc+ci]
				execs[mi] = append(execs[mi], float64(res.ExecCycles))
			}
		}
		scores := make([]float64, soc.NumModes)
		for m := range execs {
			scores[m] = stats.Mean(stats.Normalize(execs[m], execs[soc.NonCohDMA]))
		}
		assignment[specName] = soc.Mode(stats.ArgMin(scores))
	}
	return policy.NewFixedHeterogeneous(assignment, soc.CohDMA), nil
}

// isolationMeasurement is one averaged isolation data point.
type isolationMeasurement struct {
	ExecCycles float64
	OffChip    float64
}

// isolatedInvocation measures one accelerator alone on a fresh SoC:
// warm the dataset, then run `runs` invocations under the mode and
// average. Matches the paper's Figure-2 methodology (measurements
// include driver overhead and flushes). Setup failures inside the
// simulation process (allocation, instance lookup) surface as errors
// through the experiment result rather than tearing the process down.
func isolatedInvocation(cfg *soc.Config, instName string, bytes int64, mode soc.Mode, runs int, seed uint64) (isolationMeasurement, error) {
	var out isolationMeasurement
	s, err := build(cfg)
	if err != nil {
		return out, err
	}
	sys := esp.NewSystem(s, policy.NewFixed(mode))
	var procErr error
	s.Eng.Go("isolation", func(p *sim.Proc) {
		buf, err := s.Heap.Alloc(bytes)
		if err != nil {
			procErr = fmt.Errorf("isolation %s: %w", instName, err)
			return
		}
		a, err := s.AccByName(instName)
		if err != nil {
			procErr = err
			return
		}
		rng := sim.NewRNG(seed)
		p.WaitUntil(s.CPUTouchRange(s.CPUs[0], buf, 0, buf.Lines(), true, p.Now(), &soc.Meter{}))
		s.CPUPool.Acquire(p)
		for r := 0; r < runs; r++ {
			res := sys.InvokeWithMode(p, a, buf, mode, s.CPUPool, rng.Split())
			out.ExecCycles += float64(res.ExecCycles)
			out.OffChip += float64(res.OffChipTrue)
		}
		s.CPUPool.Release()
	})
	if err := s.Eng.Run(); err != nil {
		return out, err
	}
	if procErr != nil {
		return out, procErr
	}
	releaseEngine(s.Eng)
	out.ExecCycles /= float64(runs)
	out.OffChip /= float64(runs)
	return out, nil
}

// agentConfig is the shared agent setup: the paper's defaults scaled
// to the option's training length and seed, with the learner stack
// (algorithm and schedule seams) taken from the options so -learner
// and -schedule reach every experiment that trains an agent. Empty
// stack names keep the paper's default, which is byte-identical to the
// pre-refactor agent.
func agentConfig(opt Options) core.Config {
	cfg := core.DefaultConfig()
	cfg.DecayIterations = opt.TrainIterations
	cfg.Seed = opt.Seed
	cfg.Learner = opt.Learner
	cfg.Schedule = opt.Schedule
	cfg.FineGrain = opt.FineGrain
	return cfg
}

// policySet builds the paper's eight policies for one SoC, training
// Cohmeleon and profiling the heterogeneous baseline. The training and
// test applications differ (different generator seeds). Training and
// profiling are independent (separate policies, fresh SoCs per
// measurement) and run concurrently; the training loop itself stays
// sequential because iteration i+1 learns from iteration i.
func policySet(cfg *soc.Config, opt Options, weights core.RewardWeights) ([]esp.Policy, error) {
	train, err := workload.AppFor(cfg, opt.Seed+1000)
	if err != nil {
		return nil, err
	}
	agentCfg := agentConfig(opt)
	agentCfg.Weights = weights
	agent, err := core.New(agentCfg)
	if err != nil {
		return nil, err
	}
	var het *policy.FixedHeterogeneous
	if err := forEachOpt(opt, 2, func(i int) error {
		if i == 0 {
			return trainCohmeleon(simulator{opt.ctx(), cfg}, agent, train, opt.TrainIterations, opt.Seed+7)
		}
		var err error
		het, err = profileHeterogeneous(cfg, opt)
		return err
	}); err != nil {
		return nil, err
	}
	return []esp.Policy{
		policy.NewFixed(soc.NonCohDMA),
		policy.NewFixed(soc.LLCCohDMA),
		policy.NewFixed(soc.CohDMA),
		policy.NewFixed(soc.FullyCoh),
		policy.NewRandom(opt.Seed),
		het,
		policy.NewManual(),
		agent,
	}, nil
}

// geoNormalized computes the geometric mean over phases of a result's
// exec and mem series normalized to a baseline result. It is
// stats.GeoMean(stats.Normalize(...)) of both series, bit for bit — the
// same stats.Ratio floor, Epsilon clamp and log-sum order — in one pass
// over the phases and without the intermediate slices.
func geoNormalized(res, base *workload.AppResult) (exec, mem float64) {
	if len(res.Phases) != len(base.Phases) {
		panic("experiment: geoNormalized phase count mismatch")
	}
	if len(res.Phases) == 0 {
		return 0, 0
	}
	var execLog, memLog float64
	for i := range res.Phases {
		r, b := &res.Phases[i], &base.Phases[i]
		execLog += clampedLog(stats.Ratio(float64(r.Cycles), float64(b.Cycles)))
		memLog += clampedLog(stats.Ratio(float64(r.OffChip), float64(b.OffChip)))
	}
	n := float64(len(res.Phases))
	return math.Exp(execLog / n), math.Exp(memLog / n)
}

// clampedLog is one term of stats.GeoMean's log sum.
func clampedLog(x float64) float64 {
	if x < stats.Epsilon {
		x = stats.Epsilon
	}
	return math.Log(x)
}

// sizeClassOf buckets an invocation result for Figure 7.
func sizeClassOf(res *esp.Result, cfg *soc.Config) workload.SizeClass {
	return workload.Classify(res.FootprintBytes, cfg)
}
