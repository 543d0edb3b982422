#include "replay.hpp"

#include <cstring>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "cost/flops.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"
#include "nn/receptive.hpp"
#include "runtime/message.hpp"
#include "tensor/slice.hpp"

namespace perfbench {

using pico::Placed;
using pico::Region;
using pico::Tensor;
namespace nn = pico::nn;
namespace runtime = pico::runtime;

namespace {

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

double tensor_bytes(const Tensor& t) {
  return static_cast<double>(t.size()) * sizeof(float);
}

/// Encode then decode one message, each under its own span.
runtime::Message round_trip(const runtime::Message& message, SpanLog& log,
                            std::int64_t parent, std::int64_t task) {
  std::vector<std::uint8_t> bytes;
  {
    Scope span(log, kSerialize, parent, task);
    bytes = runtime::serialize(message);
  }
  Scope span(log, kDeserialize, parent, task);
  return runtime::deserialize(bytes.data(), bytes.size());
}

/// Input node of segment [first, last]: node first-1's map (node 0 is the
/// graph input).
const Tensor& segment_input(const std::vector<Tensor>& activations,
                            int first) {
  return activations.at(static_cast<std::size_t>(first - 1));
}

}  // namespace

PlanReplay replay_plan(const nn::Graph& graph,
                       const pico::partition::Plan& plan,
                       const std::vector<Tensor>& activations, SpanLog& log,
                       int reps) {
  PlanReplay out;
  double bytes = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t task = -1 - rep;
    Scope root(log, "replay", 0, task);
    for (int s = 0; s < plan.stage_count(); ++s) {
      const pico::partition::Stage& stage = plan.stages[s];
      PICO_CHECK_MSG(stage.kind == pico::partition::StageKind::Spatial,
                     "layer replay handles spatial stages only");
      Scope stage_span(log, "stage", root.id(), task);
      const Tensor& input = segment_input(activations, stage.first);
      std::vector<Placed> pieces;
      for (const pico::partition::DeviceSlice& slice : stage.assignments) {
        if (slice.out_region.empty()) continue;
        runtime::Message request;
        request.type = runtime::MessageType::WorkRequest;
        request.task_id = rep;
        request.stage_index = s;
        request.first_node = stage.first;
        request.last_node = stage.last;
        request.in_region = nn::segment_input_region(
            graph, stage.first, stage.last, slice.out_region);
        request.out_region = slice.out_region;
        {
          Scope span(log, kExtract, stage_span.id(), task);
          request.tensor = pico::extract(input, request.in_region);
        }
        bytes += tensor_bytes(request.tensor);
        runtime::Message received =
            round_trip(request, log, stage_span.id(), task);

        runtime::Message result;
        result.type = runtime::MessageType::WorkResult;
        result.task_id = rep;
        result.stage_index = s;
        result.out_region = received.out_region;
        {
          Scope span(log, kExecuteSegment, stage_span.id(), task);
          result.tensor = nn::execute_segment(
              graph, received.first_node, received.last_node,
              Placed{received.in_region, std::move(received.tensor)},
              received.out_region);
        }
        runtime::Message returned =
            round_trip(result, log, stage_span.id(), task);
        pieces.push_back({returned.out_region, std::move(returned.tensor)});
      }
      Tensor stitched;
      {
        Scope span(log, kStitch, stage_span.id(), task);
        stitched = pico::stitch(graph.node(stage.last).out_shape, pieces);
      }
      bytes += tensor_bytes(stitched);
      out.exact = out.exact &&
                  same_bits(stitched, activations.at(
                                          static_cast<std::size_t>(stage.last)));
    }
  }
  out.bytes_copied = bytes / reps;
  return out;
}

const char* layer_class(const nn::Graph& graph, int id) {
  const nn::Node& node = graph.node(id);
  if (node.kind == nn::OpKind::MaxPool || node.kind == nn::OpKind::AvgPool) {
    return "pool";
  }
  if (node.kind != nn::OpKind::Conv) return nullptr;
  if (node.inputs.size() == 1 && node.inputs[0] == 0) return "first_conv";
  if (node.groups > 1) return "dwconv";
  if (node.win.kh == 1 && node.win.kw == 1) return "conv1x1";
  if (node.win.kh == 3 && node.win.kw == 3) return "conv3x3";
  return nullptr;
}

namespace {

/// "compute_node.<class>" with static storage (Scope keeps the pointer).
const char* compute_span_name(const char* layer) {
  static const std::map<std::string, std::string> names = [] {
    std::map<std::string, std::string> out;
    for (const char* c : kLayerClasses) {
      out[c] = std::string("compute_node.") + c;
    }
    return out;
  }();
  return names.at(layer).c_str();
}

}  // namespace

void replay_layers(const nn::Graph& graph,
                   const std::vector<Tensor>& activations, SpanLog& log,
                   int reps, std::map<std::string, double>& flops) {
  Scope root(log, "layer_replay");
  for (int id = 1; id < graph.size(); ++id) {
    const char* layer = layer_class(graph, id);
    if (layer == nullptr) continue;
    const nn::Node& node = graph.node(id);
    std::vector<Placed> inputs;
    for (const int producer : node.inputs) {
      const Tensor& map = activations.at(static_cast<std::size_t>(producer));
      inputs.push_back(
          {Region::full(map.shape().height, map.shape().width), map});
    }
    const Region out_region =
        Region::full(node.out_shape.height, node.out_shape.width);
    for (int rep = 0; rep < reps; ++rep) {
      Scope span(log, compute_span_name(layer), root.id(), id);
      const Tensor result = nn::compute_node(node, inputs, out_region);
      PICO_CHECK(result.shape() == node.out_shape);
    }
    flops[layer] += pico::cost::node_flops_full(graph, id);
  }
}

}  // namespace perfbench
