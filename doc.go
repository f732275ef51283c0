// Package repro is a full reproduction, in pure Go, of "A Hardware-
// Software Co-Design for Efficient Secure Containers" (CKI, EuroSys
// 2025): a deterministic machine simulator with the paper's PKS
// hardware extensions, the CKI runtime (kernel security monitor, PKS
// switch gates, interrupt-abuse defences), the RunC/HVM/PVM baselines,
// the guest-kernel substrate they all run on, and a benchmark harness
// that regenerates every table and figure of the paper's evaluation.
//
// Start with README.md, DESIGN.md (system inventory and experiment
// index) and EXPERIMENTS.md (paper-vs-measured record). The runnable
// entry points are:
//
//	cmd/ckibench   – regenerate the paper's tables and figures
//	cmd/ckirun     – run one workload on one container runtime
//	cmd/ckitrace   – print per-flow cost decompositions
//
// The root package contains no code: the library lives under internal/
// (this repository is a self-contained research artifact; the commands
// are its public surface). The root tests hold the end-to-end
// integration test and Example, the library used directly.
package repro
