// LightSeq2 — accelerated Transformer training, reproduced in C++20 on a
// simulated GPU. Umbrella header: include this to use the public API.
//
//   core::Session      — device + memory strategy + system policy
//   core::train_step   — one timed four-stage training step
//   models::*          — Transformer / BERT / GPT-2 / ViT model zoo
//   optim::*           — Torch / Apex / LightSeq2 trainers, LR schedules
//   data::*            — synthetic WMT / WikiText / MRPC / CIFAR workloads
//   dist::*            — all-reduce (real + modeled), data-parallel helpers
//   infer::*           — serving: KV cache, generator, continuous batching
//   obs::*             — telemetry: metrics registry, spans, roofline, SLOs
//
// See README.md for a quickstart and DESIGN.md for the architecture map.
#pragma once

#include "core/capacity_scan.h" // IWYU pragma: export
#include "core/checkpoint.h"    // IWYU pragma: export
#include "core/fault_tolerant.h" // IWYU pragma: export
#include "core/session.h"       // IWYU pragma: export
#include "core/train_step.h"    // IWYU pragma: export
#include "data/synthetic.h"     // IWYU pragma: export
#include "dist/allreduce.h"     // IWYU pragma: export
#include "dist/bucket.h"        // IWYU pragma: export
#include "dist/data_parallel.h" // IWYU pragma: export
#include "dist/pipeline.h"      // IWYU pragma: export
#include "dist/process_group.h"    // IWYU pragma: export
#include "dist/tensor_parallel.h"  // IWYU pragma: export
#include "infer/batcher.h"      // IWYU pragma: export
#include "infer/fleet.h"        // IWYU pragma: export
#include "infer/generator.h"    // IWYU pragma: export
#include "infer/kv_cache.h"     // IWYU pragma: export
#include "memory/measuring_allocator.h"  // IWYU pragma: export
#include "models/bert.h"        // IWYU pragma: export
#include "models/checkpoint.h"  // IWYU pragma: export
#include "models/gpt2.h"        // IWYU pragma: export
#include "models/transformer.h" // IWYU pragma: export
#include "models/vit.h"         // IWYU pragma: export
#include "obs/metrics.h"        // IWYU pragma: export
#include "obs/roofline.h"       // IWYU pragma: export
#include "obs/slo.h"            // IWYU pragma: export
#include "obs/span.h"           // IWYU pragma: export
#include "optim/lr_schedule.h"  // IWYU pragma: export
#include "optim/optimizer.h"    // IWYU pragma: export
