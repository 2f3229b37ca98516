// Package taco is a Go reproduction of "Fast Evaluation of Protocol
// Processor Architectures for IPv6 Routing" (Lilius, Truscan, Virtanen;
// DATE 2003): a cycle-accurate simulator for TACO transport-triggered
// protocol processors, the IPv6/RIPng router case study built on it, a
// physical area/power estimation model, and the fast-evaluation
// methodology that co-analyses both to regenerate the paper's Table 1.
//
// The package holds no code; the implementation lives in:
//
//	internal/tta       transport-triggered machine model, interpreter and compiled step paths
//	internal/fu        TACO functional units (one port table each) and architecture configs
//	internal/isa       move instruction set and binary encoding
//	internal/asm       assembler / disassembler / program builder
//	internal/sched     TTA code optimization and bus scheduling
//	internal/bits      128-bit address and prefix arithmetic, 32-bit bus-word slicing
//	internal/ipv6      IPv6 headers, extension chains, UDP
//	internal/ripng     RIPng (RFC 2080) protocol engine
//	internal/rtable    seven routing tables: sequential / balanced tree / CAM (the paper's),
//	                   binary trie / multibit / tiled TCAM / compressed trie (baselines)
//	internal/linecard  line-card model
//	internal/program   generated forwarding programs, Figure 3 example
//	internal/router    golden and TACO routers, RIPng host bridge
//	internal/net       multi-router meshes over generated topologies, chaos campaigns
//	internal/fault     fault injection: mutators, link faults, poison storms, soak
//	internal/obs       counters, latency histograms, stall causes, flight recorder, exporters
//	internal/forensics failure bundles: capture, deterministic replay, diff
//	internal/profile   cycles attributed to program regions
//	internal/estimate  0.18 µm area/power/frequency model
//	internal/core      the fast-evaluation methodology (Table 1)
//	internal/dse       design-space sweeps and automated exploration
//	internal/workload  deterministic tables and traffic
//	internal/cliutil   the cmd/ tools' shared flags and run seam
//
// The tools under cmd/ drive it (tacoexplore -table1 regenerates Table
// 1), and example_test.go shows the packages in use, each Example's
// printed output checked by go test.
package taco
