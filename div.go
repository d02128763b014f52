// Package div is the public API of the discrete-incremental-voting
// library, a faithful implementation of the process introduced in
// "Brief Announcement: Discrete Incremental Voting" (PODC 2023; full
// version "Discrete Incremental Voting on Expanders" by Cooper, Radzik
// and Shiraga).
//
// Discrete incremental voting (DIV) is an asynchronous opinion dynamic
// over a connected graph: opinions are integers in {1..k}; at each step
// a vertex observes one random neighbour and moves its own opinion ONE
// unit toward the neighbour's. On expanders (λ·k small) the unique
// consensus value is, with high probability, the initial average
// opinion rounded to ⌊c⌋ or ⌈c⌉ — making DIV a distributed
// integer-averaging primitive built from nothing but one-sided pull
// interactions.
//
// # Quick start
//
//	g := div.RandomRegular(1000, 16, div.NewRand(1))
//	init := div.UniformOpinions(g.N(), 5, div.NewRand(2))
//	res, err := div.Run(div.Config{Graph: g, Initial: init, Seed: 3})
//	// res.Winner is ⌊c⌋ or ⌈c⌉ w.h.p., where c = res.InitialWeightedAverage.
//
// # Processes
//
// Two schedulers from the paper are provided: the vertex process
// (uniform vertex, uniform neighbour; conserves the degree-weighted
// average in expectation) and the edge process (uniform edge, uniform
// endpoint; conserves the simple average). Comparison dynamics — pull
// voting, median voting, best-of-k plurality, and edge load-balancing
// averaging — run on the same engine via the Rule interface.
//
// # Structure
//
// The facade re-exports a curated surface of the internal packages:
// graphs and generators, the process engine, baseline rules, and
// spectral analysis. The experiment suite reproducing the paper's
// results lives behind the divbench command; see DESIGN.md and
// EXPERIMENTS.md.
package div

import (
	"io"
	"math/rand/v2"

	"div/internal/baseline"
	"div/internal/core"
	"div/internal/graph"
	"div/internal/netsim"
	"div/internal/obs"
	"div/internal/rng"
	"div/internal/spectral"
)

// Graph is an immutable undirected simple graph in CSR form.
type Graph = graph.Graph

// Edge is an undirected edge between two vertex indices.
type Edge = graph.Edge

// NewGraph builds a graph from an edge list, rejecting self-loops and
// duplicate edges.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.NewFromEdges(n, edges) }

// Deterministic graph families.
var (
	// Complete returns K_n (λ = 1/(n-1), the strongest expander).
	Complete = graph.Complete
	// Path returns the path graph P_n (non-expander; counterexample
	// territory).
	Path = graph.Path
	// Cycle returns the cycle C_n.
	Cycle = graph.Cycle
	// Star returns the star K_{1,n-1}.
	Star = graph.Star
	// Torus returns the rows×cols wraparound lattice.
	Torus = graph.Torus
	// Hypercube returns Q_d on 2^d vertices.
	Hypercube = graph.Hypercube
)

// Random graph families (pass a *rand.Rand from NewRand for
// reproducibility).
var (
	// RandomRegular samples a random d-regular simple graph
	// (λ = O(1/√d) w.h.p.).
	RandomRegular = graph.RandomRegular
	// Gnp samples an Erdős–Rényi graph (λ ≲ 2/√(np) w.h.p. above the
	// connectivity threshold).
	Gnp = graph.Gnp
	// ConnectedGnp resamples Gnp until connected.
	ConnectedGnp = graph.ConnectedGnp
	// WattsStrogatz samples a rewired ring lattice (small world).
	WattsStrogatz = graph.WattsStrogatz
	// BarabasiAlbert samples a preferential-attachment graph
	// (heavy-tailed degrees).
	BarabasiAlbert = graph.BarabasiAlbert
)

// IsConnected reports whether g is connected; the voting processes are
// defined on connected graphs.
func IsConnected(g *Graph) bool { return graph.IsConnected(g) }

// Process selects the paper's scheduler.
type Process = core.Process

const (
	// VertexProcess picks a uniform vertex and a uniform neighbour:
	// P[v chooses w] = 1/(n·d(v)).
	VertexProcess = core.VertexProcess
	// EdgeProcess picks a uniform edge and a uniform endpoint:
	// P[v chooses w] = 1/2m.
	EdgeProcess = core.EdgeProcess
)

// Rule is one asynchronous update; DIV is the paper's rule, and the
// Pull/Median/BestOfK/LoadBalance baselines satisfy the same interface.
type Rule = core.Rule

// DIV is the paper's discrete incremental voting rule (equation (1)).
type DIV = core.DIV

// IncrementalStep generalizes DIV with a step size: S=1 is DIV, larger
// S trades the averaging guarantee for nothing (see the E15 ablation).
type IncrementalStep = core.IncrementalStep

// Baseline dynamics from the paper's related-work discussion.
type (
	// Pull is classic pull voting (adopt the neighbour's opinion).
	Pull = baseline.Pull
	// Push is classic push voting (impose on the neighbour).
	Push = baseline.Push
	// PushDIV is incremental voting with the update direction
	// reversed; under the vertex process its consensus tracks the
	// inverse-degree-weighted average (E17).
	PushDIV = baseline.PushDIV
	// Median is the median dynamics of Doerr et al.
	Median = baseline.Median
	// BestOfK is plurality sampling over K neighbour draws.
	BestOfK = baseline.BestOfK
	// LoadBalance is the edge-averaging protocol of Berenbrink et al.
	LoadBalance = baseline.LoadBalance
	// Stubborn wraps a rule with a set of zealot vertices that never
	// update (fault-tolerance experiments, E18).
	Stubborn = baseline.Stubborn
)

// NewStubborn freezes the given zealot vertices under the inner rule.
func NewStubborn(inner Rule, n int, zealots []int) (*Stubborn, error) {
	return baseline.NewStubborn(inner, n, zealots)
}

// Config describes one run; Result summarizes it. See the fields'
// documentation in the core package.
type (
	Config = core.Config
	Result = core.Result
	Stage  = core.Stage
	State  = core.State
)

// Stop conditions for Config.Stop.
const (
	// UntilConsensus runs until a single opinion remains.
	UntilConsensus = core.UntilConsensus
	// UntilTwoAdjacent runs until the paper's reduction phase ends
	// (two adjacent opinions remain).
	UntilTwoAdjacent = core.UntilTwoAdjacent
	// UntilMaxSteps runs exactly Config.MaxSteps steps.
	UntilMaxSteps = core.UntilMaxSteps
	// UntilThreeConsecutive runs until at most three consecutive values
	// remain — the absorbing band of the LoadBalance baseline.
	UntilThreeConsecutive = core.UntilThreeConsecutive
)

// Engine selects the stepping strategy for Config.Engine. Every engine
// realizes the same process law; they differ only in speed.
type Engine = core.Engine

const (
	// EngineNaive simulates every scheduler draw individually (the
	// reference implementation and the zero-value default).
	EngineNaive = core.EngineNaive
	// EngineFast tracks discordant pairs incrementally and skips runs
	// of idle draws in one geometric sample (DESIGN.md §6).
	EngineFast = core.EngineFast
	// EngineAuto switches between the two at runtime as discordance
	// falls and rebounds; the best default for long consensus runs.
	EngineAuto = core.EngineAuto
)

// ParseEngine parses "naive", "fast", or "auto".
func ParseEngine(s string) (Engine, error) { return core.ParseEngine(s) }

// Run executes one asynchronous voting process.
func Run(cfg Config) (Result, error) { return core.Run(cfg) }

// Scratch is a per-worker arena of reusable simulation state for
// repeated trials on one graph; wire it into Config.Scratch to make a
// steady-state trial allocation-free (O(1) instead of O(n + m)).
// Reuse is invisible to the law: a seeded run's Result is byte-identical
// on a fresh and on a reused Scratch. Not safe for concurrent use.
type Scratch = core.Scratch

// NewScratch returns an empty scratch bound to g.
func NewScratch(g *Graph) *Scratch { return core.NewScratch(g) }

// RunMany executes independent trials with derived per-trial seeds.
func RunMany(cfg Config, trials int) ([]Result, error) { return core.RunMany(cfg, trials) }

// Recorder samples the live state into time series; pass its Observe
// method as Config.Observer.
type Recorder = core.Recorder

// StreamRecorder is the fixed-memory counterpart of Recorder: online
// min/mean/max accumulators plus a self-coarsening bounded checkpoint
// buffer, for runs whose step count makes append-per-sample series
// unaffordable.
type StreamRecorder = core.StreamRecorder

// SampleSink is the common surface of Recorder and StreamRecorder.
type SampleSink = core.SampleSink

// NewAutoRecorder picks the exact Recorder when the expected sample
// count (maxSteps/observeEvery) fits the budget (≤0: a default) and a
// bounded StreamRecorder otherwise.
func NewAutoRecorder(maxSteps, observeEvery int64, budget int) SampleSink {
	return core.NewAutoRecorder(maxSteps, observeEvery, budget)
}

// Synchronous-rounds extension: all vertices update simultaneously;
// laziness breaks the period-2 orbits pure synchrony can fall into.
type (
	SyncConfig = core.SyncConfig
	SyncResult = core.SyncResult
)

// RunSync executes synchronous-rounds DIV.
func RunSync(cfg SyncConfig) (SyncResult, error) { return core.RunSync(cfg) }

// Initial-opinion profiles.
var (
	// UniformOpinions draws each vertex's opinion uniformly from {1..k}.
	UniformOpinions = core.UniformOpinions
	// BlockOpinions places exact per-opinion counts at random vertices.
	BlockOpinions = core.BlockOpinions
	// WeightedOpinions draws opinions from a weight vector.
	WeightedOpinions = core.WeightedOpinions
)

// Lambda estimates λ = max(|λ₂|, |λ_n|) of the random walk on g — the
// expansion parameter all of the paper's guarantees are stated in — by
// Lanczos with O(n) memory, O(n+m) per step and typically a few hundred
// steps. The estimate is a lower bound on λ, deterministic for a given
// g. If the solver's step cap is reached first, the error wraps
// ErrNotConverged and the returned value is the best lower bound so far.
func Lambda(g *Graph) (float64, error) {
	return spectral.Lambda(g, spectral.Options{})
}

// ErrNotConverged is wrapped by Lambda's error when the solver stops at
// its step cap; test for it with errors.Is.
var ErrNotConverged = spectral.ErrNotConverged

// MixingTimeBound returns the standard reversible-chain bound
// t_mix(ε) ≤ log(1/(ε·π_min))/(1-λ).
func MixingTimeBound(lambda, piMin, eps float64) float64 {
	return spectral.MixingTimeBound(lambda, piMin, eps)
}

// NewRand returns a deterministic PCG generator for the given seed;
// all randomized constructors in this package accept one.
func NewRand(seed uint64) *rand.Rand { return rng.New(seed) }

// Distributed deployment: DIV as a message-passing pull protocol over a
// simulated asynchronous network (Poisson clocks, optional latency).
type (
	// NetConfig configures a distributed run.
	NetConfig = netsim.Config
	// NetResult summarizes a distributed run.
	NetResult = netsim.Result
)

// RunDistributed executes the message-passing protocol. With zero
// latency it is exactly the vertex process (Poisson thinning).
func RunDistributed(cfg NetConfig) (NetResult, error) { return netsim.Run(cfg) }

// Observability: a probe receives semantic engine events (step
// batches, engine switches, discordance mass, stage transitions, run
// completion) via Config.Probe; a nil probe costs one predictable
// branch per step, and a non-nil probe never perturbs the trajectory.
// See DESIGN.md §7.
type (
	// Probe is the structured run-event interface.
	Probe = obs.Probe
	// ProbeMaker builds a per-run probe from (trial, seed) context.
	ProbeMaker = obs.ProbeMaker
	// StepBatch aggregates a contiguous span of steps.
	StepBatch = obs.StepBatch
	// EngineSwitch reports a hybrid naive⇄fast transition.
	EngineSwitch = obs.EngineSwitch
	// DiscordanceEvent samples the discordant-arc mass.
	DiscordanceEvent = obs.Discordance
	// StageEvent reports a support-set change.
	StageEvent = obs.Stage
	// DoneEvent reports run completion.
	DoneEvent = obs.Done
	// TraceWriter streams probe events as JSONL.
	TraceWriter = obs.TraceWriter
	// TraceEvent is one decoded JSONL trace line.
	TraceEvent = obs.Event
	// MetricsRegistry is a process-local metrics registry.
	MetricsRegistry = obs.Registry
)

// Metrics is the process-wide default metrics registry that the
// harness, netsim, and MetricsProbe(Metrics) aggregate into; snapshot
// it with Metrics.Snapshot().WriteText or publish it over expvar with
// Metrics.PublishExpvar.
var Metrics = obs.Default

// NewTraceWriter wraps w in a JSONL trace sink; attach per-run probes
// with TraceWriter.Probe(trial, seed) and flush with Close.
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewTraceWriter(w) }

// ReadTrace decodes a JSONL trace produced by TraceWriter.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return obs.ReadTrace(r) }

// MetricsProbe returns a probe that aggregates run events into reg's
// counters and histograms; it is safe to share across concurrent runs.
func MetricsProbe(reg *MetricsRegistry) Probe { return obs.MetricsProbe(reg) }

// MultiProbe fans events out to several probes, dropping nils.
func MultiProbe(probes ...Probe) Probe { return obs.Multi(probes...) }
