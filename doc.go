// Package repro is a runnable reproduction of "Towards Resilient
// Internet of Things: Vision, Challenges, and Research Roadmap"
// (Tsigkanos, Nastic, Dustdar — ICDCS 2019).
//
// The paper is a vision/roadmap: it defines resilience as the
// persistence of reliable requirements satisfaction when facing
// change, and argues that resilient IoT requires decentralized
// coordination, governed inter-IoT data flows, formally analyzable
// models carried to runtime, and MAPE-K self-adaptation at the edge.
// This repository builds that system — and the three architecture
// generations the paper positions it against — on a deterministic
// discrete-event simulation substrate, then measures all four along
// the paper's five disruption vectors.
//
// Layout:
//
//   - internal/simnet, space, env, device, fault: the simulated world
//   - internal/gossip, consensus, crdt, pubsub: distributed protocols
//   - internal/model, verify: analyzable models and model checking
//   - internal/mape, dataflow, orchestrate, metrics: the resilience
//     machinery of the roadmap
//   - internal/core: the ML1–ML4 archetypes and scenario runner
//   - internal/experiments: one experiment per table/figure
//   - cmd/riotsim, cmd/riotverify, cmd/riotbench, cmd/riotnode,
//     cmd/riotchaos: CLI tools
//   - internal/*/example_test.go: runnable, output-checked examples
//   - bench/: the gated benchmark (its own module, BENCHMARK.json), the
//     only source of performance numbers and perf gates
//
// The benchmarks in bench_test.go and cmd/riotbench regenerate every
// table and figure; see EXPERIMENTS.md for paper-vs-measured results.
package repro
