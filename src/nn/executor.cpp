#include "nn/executor.hpp"

#include <utility>

#include "common/error.hpp"
#include "nn/kernels_detail.hpp"
#include "nn/receptive.hpp"

namespace pico::nn {

std::vector<Tensor> execute_all(const Graph& graph, const Tensor& input,
                                const ExecOptions& options) {
  PICO_CHECK_MSG(graph.finalized(), "graph not finalized");
  PICO_CHECK_MSG(input.shape() == graph.input_shape(),
                 "input shape " << input.shape() << " != graph input "
                                << graph.input_shape());
  // Every value with its full-map region, so that each node reads its
  // producers in place.
  std::vector<Placed> values(static_cast<std::size_t>(graph.size()));
  values[0] = {Region::full(input.shape().height, input.shape().width),
               input};
  std::vector<const Placed*> pieces;
  for (int id = 1; id < graph.size(); ++id) {
    const Node& node = graph.node(id);
    pieces.clear();
    for (int producer : node.inputs) {
      pieces.push_back(&values[static_cast<std::size_t>(producer)]);
    }
    const Region full =
        Region::full(node.out_shape.height, node.out_shape.width);
    values[static_cast<std::size_t>(id)] = {
        full, detail::compute_node(node, pieces, full, options)};
  }
  std::vector<Tensor> tensors;
  tensors.reserve(values.size());
  for (Placed& value : values) tensors.push_back(std::move(value.tensor));
  return tensors;
}

Tensor execute(const Graph& graph, const Tensor& input,
               const ExecOptions& options) {
  return execute_all(graph, input, options).back();
}

Tensor execute_segment(const Graph& graph, int first, int last,
                       const Placed& input, const Region& out_region,
                       const ExecOptions& options) {
  // Execution is more permissive than planning (is_valid_segment): any
  // contiguous range of splittable nodes whose external inputs all come
  // from ONE producer can run.  Planners guarantee that producer is
  // first-1; branch execution (partition/branches.hpp) uses the block
  // input, which can sit further back.
  PICO_CHECK(first >= 1 && first <= last && last < graph.size());
  int external_producer = -1;
  for (int id = first; id <= last; ++id) {
    const Node& node = graph.node(id);
    PICO_CHECK_MSG(node.spatially_splittable(),
                   "segment node " << node.name << " is not splittable");
    for (const int producer : node.inputs) {
      if (producer >= first) continue;
      if (external_producer < 0) external_producer = producer;
      PICO_CHECK_MSG(producer == external_producer,
                     "segment [" << first << ", " << last
                                 << "] has two external producers");
    }
  }
  const Region external_need =
      segment_input_region(graph, first, last, out_region);
  PICO_CHECK_MSG(input.region.contains(external_need),
                 "segment input piece " << input.region
                                        << " does not cover demand "
                                        << external_need);

  const std::vector<Region> demand =
      segment_demand(graph, first, last, out_region);

  std::vector<Placed> values(static_cast<std::size_t>(last - first + 1));
  std::vector<const Placed*> pieces;
  for (int id = first; id <= last; ++id) {
    const Region need = demand[static_cast<std::size_t>(id - first)];
    if (need.empty()) continue;  // dead node w.r.t. this output region
    const Node& node = graph.node(id);
    pieces.clear();
    for (int producer : node.inputs) {
      pieces.push_back(producer < first
                           ? &input
                           : &values[static_cast<std::size_t>(producer -
                                                              first)]);
    }
    values[static_cast<std::size_t>(id - first)] = {
        need, detail::compute_node(node, pieces, need, options)};
  }
  return std::move(values.back().tensor);
}

}  // namespace pico::nn
