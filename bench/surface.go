package main

// surface.go is the benchmark's contract with the program: the only file
// that imports repro/internal/.... Every constructor, seam and counter the
// workloads and layer probes touch is re-exported here under a local name,
// so a refactor that breaks one of these signatures fails to compile in
// exactly one place — and must first ship a benchmark-only PR (README.md,
// "Contract").

import (
	"repro/internal/chord"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/faults"
	"repro/internal/gnutella"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/propnode"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/transport"
	lookups "repro/internal/workload"
)

// Types the benchmark names. The methods it reaches through them (and through
// the values the constructors below return) are part of the contract;
// README.md, "Contract", lists them per package.
type (
	Graph  = graph.Graph
	Frozen = graph.Frozen

	NetConfig     = netsim.Config
	Network       = netsim.Network
	Oracle        = netsim.Oracle
	OracleOptions = netsim.OracleOptions

	Overlay     = overlay.Overlay
	LatencyFunc = overlay.LatencyFunc

	Ring = chord.Ring

	CoreConfig   = core.Config
	Protocol     = core.Protocol
	CoreCounters = metrics.Counters

	SimEngine = event.Engine
	SimTime   = event.Time

	FaultConfig = faults.Config
	Injector    = faults.Injector
	FaultStats  = faults.Stats

	Lookup      = lookups.Lookup
	LatencyEval = metrics.LatencyEval
	ALOptions   = metrics.ALEstimatorOptions

	ShardConfig = shard.Config
	ShardFaults = shard.FaultConfig
	ShardEngine = shard.Engine

	Message        = transport.Message
	Endpoint       = transport.Endpoint
	TransportNet   = transport.Network
	Loopback       = transport.Loopback
	LoopbackConfig = transport.LoopbackConfig
	LoopbackStats  = transport.LoopbackStats

	LiveConfig   = propnode.Config
	Runtime      = propnode.Runtime
	LiveCounters = propnode.Counters

	ObsTrial   = obs.Trial
	ObsCounter = obs.Counter
)

// PROPG is the exchange policy every workload runs (Figs. 5 and 6).
const PROPG = core.PROPG

// TData is the opaque-payload wire type the codec probe encodes.
const TData = transport.TData

// Constructors and free functions.
var (
	NewRand = rng.New

	TSLarge       = netsim.TSLarge
	Generate      = netsim.Generate
	NewOracleWith = netsim.NewOracleWith

	GnutellaBuild   = gnutella.Build
	GnutellaDefault = gnutella.DefaultConfig
	ChordBuild      = chord.Build
	ChordDefault    = chord.DefaultConfig
	RandomKey       = chord.RandomKey

	NewProtocol       = core.New
	DefaultCoreConfig = core.DefaultConfig
	NewSimEngine      = event.New
	NewInjector       = faults.NewInjector

	UniformLookups    = lookups.Uniform
	MeanLookupLatency = metrics.MeanLookupLatency
	FloodEval         = metrics.FloodEval
	NewALEstimator    = metrics.NewALEstimator

	NewShard = shard.New

	NewLoopback = transport.NewLoopback
	NewNode     = transport.NewNode
	Encode      = transport.Encode
	Decode      = transport.Decode

	NewRuntime = propnode.New

	NewObsRegistry = obs.New
	NewObsManifest = obs.NewManifest
)
