// Package cohmeleon is a simulation-based reproduction of "Cohmeleon:
// Learning-Based Orchestration of Accelerator Coherence in Heterogeneous
// SoCs" (Zuckerman et al., MICRO 2021).
//
// The package is organized in three layers, all reachable from this
// facade:
//
//   - A transaction-level, deterministic discrete-event simulator of an
//     ESP-style tiled SoC: a 2D-mesh multi-plane NoC, MESI private
//     caches, an inclusive directory-based partitioned LLC, DRAM
//     controllers, and accelerator sockets implementing the paper's four
//     coherence modes (non-coherent DMA, LLC-coherent DMA, coherent DMA,
//     fully-coherent).
//   - The Cohmeleon reinforcement-learning module, built on a pluggable
//     learner engine with three seams: a Featurizer (Table-3 state
//     encoding), an Algorithm (tabular ε-greedy Q-learning by default,
//     with double Q-learning, UCB1 and Boltzmann variants) and a
//     Schedule (linear ε/α decay by default, with exponential and
//     constant variants) — alongside the paper's baselines (Random,
//     four Fixed policies, a profiling-derived Fixed-heterogeneous
//     policy, and the manually-tuned Algorithm 1).
//   - An experiment harness that regenerates every evaluation artifact:
//     Table 4, Figures 2–3 (motivation), Figures 5–9, the headline
//     speedup/off-chip aggregates, the runtime-overhead sweep, and a set
//     of design-choice ablations.
//
// Quick start:
//
//	cfg := cohmeleon.SoC5()                       // Table-4 preset
//	agent, err := cohmeleon.NewAgent(cohmeleon.DefaultAgentConfig())
//	app, err := cohmeleon.AppFor(cfg, 1)          // case-study workload
//	cohmeleon.Train(cfg, agent, app, 10, 7)       // online learning
//	res, err := cohmeleon.RunApp(cfg, agent, app, 3)
//
// All randomness flows from explicit seeds; identical inputs give
// bit-identical results.
package cohmeleon

import (
	"cohmeleon/internal/acc"
	"cohmeleon/internal/core"
	"cohmeleon/internal/esp"
	"cohmeleon/internal/experiment"
	"cohmeleon/internal/learn"
	"cohmeleon/internal/policy"
	"cohmeleon/internal/scenario"
	"cohmeleon/internal/sim"
	"cohmeleon/internal/soc"
	"cohmeleon/internal/workload"
)

// Core simulator types.
type (
	// Mode is an accelerator cache-coherence mode.
	Mode = soc.Mode
	// SoCConfig describes one SoC to build (Table 4 presets below).
	SoCConfig = soc.Config
	// SoC is a fully assembled simulated system.
	SoC = soc.SoC
	// AccInstance declares one accelerator to integrate.
	AccInstance = soc.AccInstance
	// AccSpec is an accelerator communication profile.
	AccSpec = acc.Spec
	// TrafficConfig parameterizes the configurable traffic generator.
	TrafficConfig = acc.TrafficConfig
	// Params holds the simulator's timing constants.
	Params = soc.Params
	// Cycles is a duration or instant of simulated time.
	Cycles = sim.Cycles
)

// The four coherence modes, in paper order.
const (
	NonCohDMA = soc.NonCohDMA
	LLCCohDMA = soc.LLCCohDMA
	CohDMA    = soc.CohDMA
	FullyCoh  = soc.FullyCoh
)

// Software-stack and policy types.
type (
	// Policy selects a coherence mode per accelerator invocation.
	Policy = esp.Policy
	// DecisionContext is the sensed snapshot handed to a policy.
	DecisionContext = esp.Context
	// InvocationResult is the evaluation of a completed invocation.
	InvocationResult = esp.Result
	// System binds a simulated SoC to a coherence policy.
	System = esp.System
	// Agent is the Cohmeleon learning policy (a learner-stack
	// composition).
	Agent = core.Cohmeleon
	// AgentConfig parameterizes a Cohmeleon agent, including its
	// learner stack (Learner, Schedule, Featurizer).
	AgentConfig = core.Config
	// RewardWeights are the x, y, z reward coefficients.
	RewardWeights = core.RewardWeights
)

// Pluggable learner-engine types: the three seams an Agent composes.
type (
	// Featurizer maps a sensed context to a discrete learner state.
	Featurizer = learn.Featurizer
	// LearnerAlgorithm owns decide/update over (state, mode) values.
	LearnerAlgorithm = learn.Algorithm
	// LearnerSchedule yields the per-iteration ε/α trajectories.
	LearnerSchedule = learn.Schedule
	// LearnerScheduleParams parameterize schedule construction.
	LearnerScheduleParams = learn.ScheduleParams
	// LearnerState is a portable snapshot of a tabular algorithm.
	LearnerState = learn.TabularState
	// Table3Featurizer is the paper's five-attribute state encoder.
	Table3Featurizer = learn.Encoder
)

// Learner-engine constructors and registries.
var (
	// NewLearnerAlgorithm builds a registered algorithm by name
	// ("q", "double-q", "ucb1", "boltzmann").
	NewLearnerAlgorithm = learn.NewAlgorithm
	// NewLearnerSchedule builds a registered schedule by name
	// ("linear", "exp", "const").
	NewLearnerSchedule = learn.NewSchedule
	// LearnerAlgorithmNames and LearnerScheduleNames list the
	// registries (the CLI's -learner/-schedule domains).
	LearnerAlgorithmNames = learn.AlgorithmNames
	LearnerScheduleNames  = learn.ScheduleNames
	// NewTable3Featurizer returns the paper's full encoder; the ablated
	// variant pins chosen attributes.
	NewTable3Featurizer = learn.NewEncoder
	// SaveLearnerState and LoadLearnerState persist any tabular
	// algorithm's state with the versioned codec (reads PR-3-era
	// Q-table files too).
	SaveLearnerState = learn.SaveStateFile
	LoadLearnerState = learn.LoadStateFile
)

// Workload types.
type (
	// App is a phase/thread/chain evaluation application.
	App = workload.App
	// PhaseSpec is one application phase (threads launched together).
	PhaseSpec = workload.PhaseSpec
	// ThreadSpec is one software thread: a dataset and a chain of
	// accelerator invocations over it.
	ThreadSpec = workload.ThreadSpec
	// AppResult holds one application run's measurements.
	AppResult = workload.AppResult
	// GenConfig controls the random application generator.
	GenConfig = workload.GenConfig
	// SizeClass is the paper's S/M/L/XL workload characterization.
	SizeClass = workload.SizeClass
)

// Traffic-generator access patterns.
const (
	Streaming = acc.Streaming
	Strided   = acc.Strided
	Irregular = acc.Irregular
)

// Scenario-sweep types: randomized SoC topologies and workload mixes
// sampled from a declarative seeded spec, the substrate of the `sweep`
// experiment and the Q-table transfer workflow.
type (
	// RandomSoCSpec bounds the randomized SoC-configuration generator.
	RandomSoCSpec = soc.RandomSpec
	// ScenarioSpec bounds the scenario sampler (SoC + workload draw).
	ScenarioSpec = scenario.Spec
	// Scenario is one sampled (SoC, workload) evaluation point.
	Scenario = scenario.Scenario
	// QTable is the agent's learned state-action value table.
	QTable = core.QTable
)

// Scenario-sweep and Q-table persistence constructors.
var (
	// DefaultRandomSoCSpec spans the design space around Table 4.
	DefaultRandomSoCSpec = soc.DefaultRandomSpec
	// RandomSoC samples one validated SoC configuration from a seed.
	RandomSoC = soc.RandomConfig
	// DefaultScenarioSpec spans the full default scenario space.
	DefaultScenarioSpec = scenario.DefaultSpec
	// SampleScenarios draws a deterministic scenario set from a seed.
	SampleScenarios = scenario.Sample
	// LoadQTable reads a single Q-table saved with SaveLearnerState.
	LoadQTable = core.LoadTableFile
	// MergeQTables combines trained tables by visit-weighted averaging.
	MergeQTables = core.MergeTables
)

// Experiment types.
type (
	// Experiment is one reproducible artifact of the paper.
	Experiment = experiment.Entry
	// ExperimentOptions scales the experiment protocol.
	ExperimentOptions = experiment.Options
	// Report is a rendered experiment result.
	Report = experiment.Report
)

// Table-4 SoC presets and the motivation SoCs.
var (
	// SoC1 through SoC6 return the corresponding Table-4 configurations;
	// SoC0 additionally selects the traffic-generator mix.
	SoC0 = soc.SoC0
	SoC1 = soc.SoC1
	SoC2 = soc.SoC2
	SoC3 = soc.SoC3
	SoC4 = soc.SoC4
	SoC5 = soc.SoC5
	SoC6 = soc.SoC6
	// MotivationIsolation and MotivationParallel are the Figures-2/3
	// SoCs.
	MotivationIsolation = soc.MotivationIsolation
	MotivationParallel  = soc.MotivationParallel
	// Table4Configs returns all seven evaluation SoCs.
	Table4Configs = soc.Table4
	// DefaultParams is the timing-parameter set used in every experiment;
	// custom SoCConfigs need it (or a modified copy).
	DefaultParams = soc.DefaultParams
)

// Traffic-generator mixes for SoC0.
const (
	TrafficMixed     = soc.TrafficMixed
	TrafficStreaming = soc.TrafficStreaming
	TrafficIrregular = soc.TrafficIrregular
)

// Workload constructors.
var (
	// GenerateApp builds a seeded random evaluation application.
	GenerateApp = workload.Generate
	// Figure5App builds the four named Figure-5 phases.
	Figure5App = workload.Figure5App
	// AutonomousDrivingApp and ComputerVisionApp are the case studies.
	AutonomousDrivingApp = workload.AutonomousDrivingApp
	ComputerVisionApp    = workload.ComputerVisionApp
	// AppFor picks the evaluation application matched to a SoC.
	AppFor = workload.AppFor
)

// Policy constructors.
var (
	// NewAgent creates a Cohmeleon Q-learning agent.
	NewAgent = core.New
	// DefaultAgentConfig is the paper's training setup.
	DefaultAgentConfig = core.DefaultConfig
	// DefaultRewardWeights is the (67.5, 7.5, 25) reward.
	DefaultRewardWeights = core.DefaultWeights
	// NewFixed, NewRandom, NewManual and NewFixedHeterogeneous build the
	// baseline policies.
	NewFixed              = policy.NewFixed
	NewRandom             = policy.NewRandom
	NewManual             = policy.NewManual
	NewFixedHeterogeneous = policy.NewFixedHeterogeneous
)

// Accelerator catalog access.
var (
	// AcceleratorNames lists the twelve cataloged kernels.
	AcceleratorNames = acc.Names
	// AcceleratorByName returns a cataloged communication profile.
	AcceleratorByName = acc.ByName
)

// RunApp executes an application on a freshly built SoC under the given
// policy and returns per-phase measurements. Policies persist across
// calls (that is how Cohmeleon keeps learning); hardware state does not.
func RunApp(cfg *SoCConfig, pol Policy, app *App, seed uint64) (*AppResult, error) {
	s, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	return workload.Run(esp.NewSystem(s, pol), app, seed)
}

// Train runs the agent through iters online-training iterations of the
// application (a fresh SoC per iteration), advancing its ε/α decay
// after each, exactly as the paper trains on successive runs of an
// application instance.
func Train(cfg *SoCConfig, agent *Agent, app *App, iters int, seed uint64) error {
	agent.Unfreeze()
	for i := 0; i < iters; i++ {
		if _, err := RunApp(cfg, agent, app, seed+uint64(i)); err != nil {
			return err
		}
		agent.EndIteration()
	}
	return nil
}

// Experiments lists every reproducible artifact (tables and figures).
func Experiments() []Experiment { return experiment.List() }

// RunExperiment executes one experiment by ID ("fig2" … "fig9",
// "table4", "headline", "overhead", "ablation").
func RunExperiment(id string, opt ExperimentOptions) (Report, error) {
	e, err := experiment.Lookup(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opt)
}

// DefaultExperimentOptions is the paper-faithful protocol; Quick and
// Tiny trade repetitions for runtime.
var (
	DefaultExperimentOptions = experiment.Default
	QuickExperimentOptions   = experiment.Quick
	TinyExperimentOptions    = experiment.Tiny
)
