// Layer replay: the benchmark re-runs, one call at a time and on an idle
// process, the work one inference puts on each layer, so every call can be
// timed on its own.
//
//  - replay_plan walks a plan's stages the way the runtime does: extract
//    each device's input region, encode and decode its WorkRequest, run the
//    segment, encode and decode the WorkResult, stitch the stage output.
//  - replay_layers times nn::compute_node on every node of a graph, grouped
//    by layer class, against the FLOPs cost:: assigns it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/graph.hpp"
#include "partition/plan.hpp"
#include "spans.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Span names the replays record; plan-replay metrics are the self times of
/// these spans.
inline constexpr const char* kExtract = "extract";
inline constexpr const char* kSerialize = "serialize";
inline constexpr const char* kDeserialize = "deserialize";
inline constexpr const char* kExecuteSegment = "execute_segment";
inline constexpr const char* kStitch = "stitch";

struct PlanReplay {
  double bytes_copied = 0.0;  ///< extract + stitch bytes per inference
  bool exact = true;          ///< every stitched stage output matched
};

/// Replay `plan` `reps` times on `activations` (nn::execute_all of one
/// input).  Spans go to `log` under one "replay" root per repetition.
PlanReplay replay_plan(const pico::nn::Graph& graph,
                       const pico::partition::Plan& plan,
                       const std::vector<pico::Tensor>& activations,
                       SpanLog& log, int reps);

/// Layer classes of the per-class rate report (one span name each).
inline constexpr const char* kLayerClasses[] = {
    "conv3x3", "conv1x1", "dwconv", "pool", "first_conv"};

/// Class of a node, or nullptr when the node is in none of them.
const char* layer_class(const pico::nn::Graph& graph, int id);

/// FLOPs (cost:: count) per class summed over one pass of `graph`, adding to
/// `flops`.  Each node of a class is timed `reps` times under a span named
/// "compute_node.<class>".
void replay_layers(const pico::nn::Graph& graph,
                   const std::vector<pico::Tensor>& activations, SpanLog& log,
                   int reps, std::map<std::string, double>& flops);

}  // namespace perfbench
