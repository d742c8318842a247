// SeDA: Secure and Efficient DNN Accelerators with Hardware/Software Synergy
// (DAC 2025) -- umbrella header for the whole library.
//
// Layered public API (include just the layer you need):
//
//   crypto    - AES/CTR/B-AES, AES-CMAC positional & XOR MACs, HMAC-SHA256
//               key derivation, SECA / RePA attack models, 28 nm engine
//               cost model
//   dram      - open-page DDR timing model with FR-FCFS scheduling
//   accel     - layers, NPU configs, systolic cycle model, tiler, traces,
//               SCALE-Sim-style reports
//   models    - the 13 evaluation workloads
//   protect   - protection-scheme interface, metadata caches, integrity
//               tree, SGX-/MGX-style baselines
//   core      - the SeDA scheme (optBlk search + multi-level MACs), the
//               secure-NPU pricing pipeline, functional secure memory,
//               model provisioning, and the experiment harness
//   runtime   - thread pool / task queue, the concurrent suite driver, and
//               sharded multi-worker secure-memory sessions
//   serve     - the multi-tenant serving layer: request front end, bounded
//               admission queue, per-tenant keys/memory, batching
//               scheduler, and the closed-loop load generator
//   infer     - the secure inference engine: model traces bound onto
//               protected units, trace replay through a session or the
//               server, per-layer verification accounting
//   attack    - the adversary-under-load campaign driver: seeded fault
//               plans injected through the Dram_tap seam against a live
//               server, with exact detection attribution
//   obs       - stage-level observability: sharded metrics registry,
//               log-bucketed latency histograms, pipeline span timers,
//               Prometheus/JSON scrape and chrome://tracing export
//
// Typical entry points: accel::simulate_model, core::make_scheme,
// core::run_protected, core::run_suite, core::Secure_memory,
// core::provision_model, runtime::run_suite_parallel,
// runtime::Secure_session, serve::Server, serve::run_loadgen,
// infer::run_infer, attack::run_campaign.
#pragma once

#include "accel/accel_sim.h"
#include "attack/campaign.h"
#include "attack/fault_injector.h"
#include "attack/fault_plan.h"
#include "accel/report.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/experiment.h"
#include "core/optblk_search.h"
#include "core/provision.h"
#include "core/secure_memory.h"
#include "core/secure_npu.h"
#include "core/seda_scheme.h"
#include "crypto/attacks.h"
#include "crypto/baes.h"
#include "crypto/engine_model.h"
#include "crypto/kdf.h"
#include "crypto/mac.h"
#include "dram/dram_sim.h"
#include "dram/dram_tap.h"
#include "infer/inference_engine.h"
#include "infer/model_binding.h"
#include "infer/run_infer.h"
#include "infer/trace_player.h"
#include "infer/unit_sink.h"
#include "models/zoo.h"
#include "obs/export.h"
#include "obs/health.h"
#include "obs/histogram.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/snapshot.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "protect/scheme.h"
#include "protect/unit_scheme.h"
#include "runtime/parallel_suite.h"
#include "runtime/secure_session.h"
#include "runtime/thread_pool.h"
#include "serve/loadgen.h"
#include "serve/server.h"
