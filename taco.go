// Package taco is a Go reproduction of "Fast Evaluation of Protocol
// Processor Architectures for IPv6 Routing" (Lilius, Truscan, Virtanen;
// DATE 2003): a cycle-accurate simulator for TACO transport-triggered
// protocol processors, the IPv6/RIPng router case study built on it, a
// physical area/power estimation model, and the fast-evaluation
// methodology that co-analyses both to regenerate the paper's Table 1.
//
// This package is a façade over the implementation packages:
//
//	internal/tta       transport-triggered machine model, interpreter and compiled step paths
//	internal/fu        TACO functional units (one port table each) and architecture configs
//	internal/isa       move instruction set and binary encoding
//	internal/asm       assembler / disassembler / program builder
//	internal/sched     TTA code optimization and bus scheduling
//	internal/bits      128-bit address and prefix arithmetic, 32-bit bus-word slicing
//	internal/ipv6      IPv6 headers, extension chains, UDP/ICMPv6
//	internal/ripng     RIPng (RFC 2080) protocol engine
//	internal/rtable    seven routing tables: sequential / balanced tree / CAM (the paper's),
//	                   binary trie / multibit / tiled TCAM / compressed trie (baselines)
//	internal/linecard  line-card model
//	internal/program   generated forwarding programs, Figure 3 example
//	internal/router    golden and TACO routers, RIPng host bridge
//	internal/net       multi-router meshes over generated topologies, chaos campaigns
//	internal/fault     fault injection: mutators, link/peer faults, soak
//	internal/obs       counters, latency histograms, stall causes, flight recorder, exporters
//	internal/forensics failure bundles: capture, deterministic replay, diff
//	internal/profile   cycles attributed to program regions
//	internal/estimate  0.18 µm area/power/frequency model
//	internal/gen       VHDL / simulator-JSON / Matlab model generator
//	internal/core      the fast-evaluation methodology (Table 1)
//	internal/dse       design-space sweeps and automated exploration
//	internal/workload  deterministic tables and traffic
//	internal/cliutil   the cmd/ tools' shared flags and run seam
//
// A typical evaluation reproduces the paper's headline table:
//
//	metrics, err := taco.EvaluateAll(taco.PaperConstraints(), taco.DefaultSimOptions())
//	fmt.Print(taco.FormatTable1(metrics))
package taco

import (
	"taco/internal/core"
	"taco/internal/dse"
	"taco/internal/estimate"
	"taco/internal/fault"
	"taco/internal/fu"
	"taco/internal/ipv6"
	"taco/internal/linecard"
	"taco/internal/obs"
	"taco/internal/profile"
	"taco/internal/ripng"
	"taco/internal/router"
	"taco/internal/rtable"
	"taco/internal/workload"
)

// Architecture configuration (the paper's design-space axes).
type (
	// Config describes one TACO architecture instance.
	Config = fu.Config
	// TableKind selects a routing-table implementation.
	TableKind = rtable.Kind
)

// The paper's three architecture instances.
var (
	Config1Bus1FU = fu.Config1Bus1FU
	Config3Bus1FU = fu.Config3Bus1FU
	Config3Bus3FU = fu.Config3Bus3FU
	PaperConfigs  = fu.PaperConfigs
)

// Routing-table implementations (paper §4 plus the trie baselines).
const (
	Sequential   = rtable.Sequential
	BalancedTree = rtable.BalancedTree
	CAM          = rtable.CAM
	Trie         = rtable.Trie
	// Multibit is the multibit-stride (LC-trie-style) scaling backend.
	Multibit = rtable.Multibit
	// TiledTCAM is the MashUp-style tiled ternary CAM: subtree tiles
	// sized to a block budget behind an SRAM index stage.
	TiledTCAM = rtable.TiledTCAM
	// Compressed is the CRAM-style compressed trie: the multibit walk
	// over bitmap-compressed child arrays.
	Compressed = rtable.Compressed
)

// NewTable constructs an empty routing table of the given kind.
var NewTable = rtable.New

// Evaluation methodology (the paper's contribution).
type (
	// Constraints are the application requirements (line rate, table
	// size, technology, acceptability thresholds).
	Constraints = core.Constraints
	// Metrics is one co-analysed Table 1 row.
	Metrics = core.Metrics
	// SimOptions tunes the simulation workload.
	SimOptions = core.SimOptions
	// ScaleSpec parameterises a model-based large-database evaluation.
	ScaleSpec = core.ScaleSpec
)

var (
	// PaperConstraints returns the §4 requirements (10 Gbps, ≤100
	// routing entries, 0.18 µm).
	PaperConstraints = core.PaperConstraints
	// DefaultSimOptions returns the standard evaluation workload.
	DefaultSimOptions = core.DefaultSimOptions
	// Evaluate runs the methodology for one instance.
	Evaluate = core.Evaluate
	// EvaluateAll runs the methodology over the paper's nine instances.
	EvaluateAll = core.EvaluateAll
	// SelectBest picks the lowest-power acceptable instance.
	SelectBest = core.SelectBest
	// EvaluateCAMConverged iterates the CAM search latency to its
	// clock-dependent fixed point.
	EvaluateCAMConverged = core.EvaluateCAMConverged
	// EvaluateScaled runs the model-based large-database methodology
	// (anchored cycle model + measured probes + table SRAM co-analysis).
	EvaluateScaled = core.EvaluateScaled
	// FormatTable1 renders metrics in the paper's Table 1 layout.
	FormatTable1 = core.FormatTable1
)

// Design-space exploration (sweeps and the automated future-work tool).
var (
	// Sweep evaluates the instance lists the builders below make.
	Sweep                = dse.Sweep
	TableSizeInstances   = dse.TableSizeInstances
	BusInstances         = dse.BusInstances
	PacketSizeInstances  = dse.PacketSizeInstances
	ReplicationInstances = dse.ReplicationInstances
	LargeTableInstances  = dse.LargeTableInstances
	ExploreCtx           = dse.ExploreCtx
	Pareto               = dse.Pareto
)

// Routers.
type (
	// Router is the TACO-processor router (Figure 1 + Figure 2).
	Router = router.TACO
	// GoldenRouter is the pure-Go reference router.
	GoldenRouter = router.Golden
	// Host bridges the router's local queue to a RIPng engine.
	Host = router.Host
	// Datagram is a line-card datagram.
	Datagram = linecard.Datagram
	// RIPngEngine is the RFC 2080 protocol process.
	RIPngEngine = ripng.Engine
)

var (
	// NewRouter builds a TACO router over a table.
	NewRouter = router.NewTACO
	// NewGoldenRouter builds the reference router.
	NewGoldenRouter = router.NewGolden
	// NewHost attaches a RIPng engine to a TACO router.
	NewHost = router.NewHost
	// NewRIPngEngine builds a RIPng process over a table.
	NewRIPngEngine = ripng.NewEngine
)

// Fault injection (adversarial traffic, link/peer faults, soak runs).
type (
	// Mutator corrupts datagrams deterministically; see AllMutators.
	Mutator = fault.Mutator
	// Injector applies a probabilistic mutator mix to a traffic stream.
	Injector = fault.Injector
	// FaultyLink models an unreliable wire (flaps, loss, corruption).
	FaultyLink = fault.Link
	// PeerFault drops/delays/duplicates RIPng exchanges.
	PeerFault = fault.PeerFault
	// SoakOptions configures a differential fault campaign run.
	SoakOptions = fault.SoakOptions
	// SoakReport aggregates a soak run's outcome; Clean() is the verdict.
	SoakReport = fault.SoakReport
	// DropReason is the shared drop taxonomy counted at every layer.
	DropReason = ipv6.DropReason
	// DropCounters accumulates drops by reason.
	DropCounters = obs.DropCounters
	// StallError is the watchdog's structured budget-exhaustion report.
	StallError = router.StallError
)

var (
	// NewInjector builds an injector from mutator rules.
	NewInjector = fault.NewInjector
	// ParseFaultSpec builds an injector from a "name[:prob],..." spec.
	ParseFaultSpec = fault.ParseSpec
	// AllMutators returns the built-in mutator set.
	AllMutators = fault.AllMutators
	// NewFaultyLink builds an unreliable wire.
	NewFaultyLink = fault.NewLink
	// NewPeerFault builds a RIPng peer-fault filter.
	NewPeerFault = fault.NewPeerFault
	// PoisonStorm builds metric-16 withdrawal bursts for prefixes.
	PoisonStorm = fault.PoisonStorm
	// RunSoak runs differential golden-vs-TACO fault campaigns.
	RunSoak = fault.RunSoak
	// ErrStall matches (errors.Is) any watchdog stall.
	ErrStall = router.ErrStall
)

// Profiling.
type (
	// Profile attributes executed cycles to program regions.
	Profile = profile.Profile
)

// Observability.
type (
	// Counters is the fine-grained per-bus/per-FU/per-socket counter
	// sink; attach with Machine.AttachCounters.
	Counters = obs.Counters
	// TraceWriter streams Chrome trace-event JSON. Machine.TraceHook
	// turns flight-recorder events into its slices: arm a recorder
	// (Router.ArmRecorder), drive Router.RunStepped and pass every cycle's
	// events to the hook, then open the file in Perfetto.
	TraceWriter = obs.TraceWriter
)

// NewTraceWriter starts a trace-event document on w.
var NewTraceWriter = obs.NewTraceWriter

// NewProfile builds a cycle profile over a program's labels; pass its
// Hook to RunStepped (recorder armed) to collect.
var NewProfile = profile.New

// Physical estimation.
type (
	// Tech is an implementation technology.
	Tech = estimate.Tech
	// Estimate is a physical characterisation at one clock.
	Estimate = estimate.Estimate
)

var (
	// Default180nm is the paper's 0.18 µm technology.
	Default180nm = estimate.Default180nm
	// Physical estimates a configuration at a clock frequency.
	Physical = estimate.Physical
	// FormatHz renders a frequency Table 1 style.
	FormatHz = estimate.FormatHz
)

// Workload generation.
var (
	// GenerateRoutes produces a deterministic routing table.
	GenerateRoutes = workload.GenerateRoutes
	// GenerateLargeRoutes produces 10k–1M routes with a realistic IPv6
	// prefix-length mix and allocation locality.
	GenerateLargeRoutes = workload.GenerateLargeRoutes
	// GenerateChurn produces a deterministic insert/delete/replace
	// update stream against a base table.
	GenerateChurn = workload.GenerateChurn
	// GenerateTraffic produces deterministic datagrams for routes.
	GenerateTraffic = workload.GenerateTraffic
	// PaperTableSpec is the 100-entry table of the paper's constraint.
	PaperTableSpec = workload.PaperTableSpec
	// PaperTrafficSpec is the 512-byte datagram model.
	PaperTrafficSpec = workload.PaperTrafficSpec
)
