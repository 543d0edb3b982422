#include "analysis/audit.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "cost/flops.hpp"
#include "nn/receptive.hpp"
#include "partition/branches.hpp"
#include "partition/plan_cost.hpp"

namespace pico::analysis {

namespace {

constexpr double kFlopsTolerance = 1e-6;  ///< relative, double accumulation

struct Auditor {
  const nn::Graph& graph;
  const Cluster& cluster;
  const NetworkModel& network;
  const partition::Plan& plan;
  const AuditOptions& options;
  AuditReport report;

  void add(Severity severity, const std::string& check, int stage,
           DeviceId device, const std::string& message) {
    report.findings.push_back({severity, check, stage, device, message});
    if (severity == Severity::Error && check == "structure") {
      report.structure_ok = false;
    }
  }

  template <typename... Parts>
  static std::string cat(Parts&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
  }

  // -- structure ----------------------------------------------------------

  /// Re-derives the validate_plan invariants, reporting every violation.
  /// Returns per-stage "safe to analyse deeper" flags.
  std::vector<bool> check_structure() {
    std::vector<bool> stage_ok(plan.stages.size(), true);
    if (plan.stages.empty()) {
      add(Severity::Error, "structure", -1, -1, "plan has no stages");
      return stage_ok;
    }
    int expected_first = 1;
    std::set<DeviceId> across_stages;
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
      const partition::Stage& stage = plan.stages[s];
      const int index = static_cast<int>(s);
      if (stage.first != expected_first) {
        add(Severity::Error, "structure", index, -1,
            cat("stage starts at node ", stage.first, ", expected ",
                expected_first, " (ranges must be contiguous)"));
      }
      expected_first = stage.last + 1;
      if (stage.first < 1 || stage.last >= graph.size() ||
          stage.first > stage.last) {
        add(Severity::Error, "structure", index, -1,
            cat("stage range [", stage.first, ", ", stage.last,
                "] is outside the graph's nodes [1, ", graph.size() - 1,
                "]"));
        stage_ok[s] = false;
        continue;
      }
      if (!nn::is_valid_segment(graph, stage.first, stage.last)) {
        add(Severity::Error, "structure", index, -1,
            cat("range [", stage.first, ", ", stage.last,
                "] is not a valid fused segment"));
        stage_ok[s] = false;
      }
      if (stage.assignments.empty()) {
        add(Severity::Error, "structure", index, -1, "stage has no devices");
        stage_ok[s] = false;
        continue;
      }

      const Shape out = graph.node(stage.last).out_shape;
      std::vector<Region> regions;
      std::set<DeviceId> in_stage;
      std::set<int> branch_indices;
      bool devices_valid = true;
      for (const partition::DeviceSlice& slice : stage.assignments) {
        if (slice.device < 0 || slice.device >= cluster.size()) {
          add(Severity::Error, "structure", index, slice.device,
              cat("device id ", slice.device, " outside cluster of ",
                  cluster.size()));
          devices_valid = false;
          continue;
        }
        if (!in_stage.insert(slice.device).second) {
          add(Severity::Error, "structure", index, slice.device,
              cat("device ", slice.device, " appears twice in stage"));
        }
        if (plan.pipelined && !across_stages.insert(slice.device).second) {
          add(Severity::Error, "devices", index, slice.device,
              cat("device ", slice.device,
                  " appears in two pipelined stages (stages must use "
                  "disjoint device sets, Eq. 10)"));
        }
        if (stage.kind == partition::StageKind::Spatial) {
          if (!slice.branches.empty()) {
            add(Severity::Error, "structure", index, slice.device,
                "spatial stage carries branch assignments");
          }
          if (!slice.out_region.empty()) regions.push_back(slice.out_region);
        } else {
          for (const int branch : slice.branches) {
            if (!branch_indices.insert(branch).second) {
              add(Severity::Error, "structure", index, slice.device,
                  cat("branch ", branch, " assigned twice"));
            }
          }
        }
      }
      if (!devices_valid) stage_ok[s] = false;
      if (!stage_ok[s]) continue;

      if (stage.kind == partition::StageKind::Spatial) {
        if (!tiles_exactly(Region::full(out.height, out.width), regions)) {
          add(Severity::Error, "structure", index, -1,
              cat("device output regions do not tile the ", out.height, "x",
                  out.width, " map (overlap or gap)"));
          stage_ok[s] = false;
        }
      } else {
        const std::vector<partition::Branch> branches =
            partition::block_branches(graph, {stage.first, stage.last});
        if (branches.empty()) {
          add(Severity::Error, "structure", index, -1,
              cat("branch stage over a non-branch-decomposable segment [",
                  stage.first, ", ", stage.last, "]"));
          stage_ok[s] = false;
        } else if (branch_indices.empty() ||
                   *branch_indices.begin() < 0 ||
                   *branch_indices.rbegin() >=
                       static_cast<int>(branches.size()) ||
                   branch_indices.size() != branches.size()) {
          add(Severity::Error, "structure", index, -1,
              cat("branch assignments do not cover all ", branches.size(),
                  " branches exactly once"));
          stage_ok[s] = false;
        }
      }
    }
    if (expected_first != graph.size() && !plan.stages.empty()) {
      add(Severity::Error, "structure", -1, -1,
          cat("plan covers nodes up to ", expected_first - 1,
              " but graph has ", graph.size() - 1));
    }
    return stage_ok;
  }

  // -- halo ---------------------------------------------------------------

  /// True when every node of [first, last] consumes exactly the previous
  /// node — the case where Eq. 3 can be folded node-by-node and compared
  /// against segment_input_region as an independent derivation.
  bool segment_is_chain(int first, int last) const {
    for (int id = first; id <= last; ++id) {
      const std::vector<int>& inputs = graph.node(id).inputs;
      if (inputs.size() != 1 || inputs[0] != id - 1) return false;
    }
    return true;
  }

  void check_halo(int index, const partition::Stage& stage,
                  StageAudit& audit) {
    const Shape in = graph.node(stage.first).in_shape;
    const Region full_in = Region::full(in.height, in.width);
    int input_rows = 0;
    for (const partition::DeviceSlice& slice : stage.assignments) {
      if (slice.out_region.empty()) continue;
      const Region in_region = nn::segment_input_region(
          graph, stage.first, stage.last, slice.out_region);
      if (in_region.empty()) {
        add(Severity::Error, "halo", index, slice.device,
            cat("non-empty output region ", cat_region(slice.out_region),
                " demands an empty input region (Eq. 3 recursion broken)"));
        continue;
      }
      if (!full_in.contains(in_region)) {
        add(Severity::Error, "halo", index, slice.device,
            cat("input region ", cat_region(in_region),
                " escapes the producer map ", in.height, "x", in.width));
      }
      input_rows += in_region.height();

      const std::vector<Region> demand = nn::segment_demand(
          graph, stage.first, stage.last, slice.out_region);
      const Region& own = demand[static_cast<std::size_t>(stage.last -
                                                          stage.first)];
      if (own != slice.out_region) {
        add(Severity::Error, "halo", index, slice.device,
            cat("segment_demand does not fix the output region: asked for ",
                cat_region(slice.out_region), ", recursion yields ",
                cat_region(own)));
      }
      if (segment_is_chain(stage.first, stage.last)) {
        Region folded = slice.out_region;
        for (int id = stage.last; id >= stage.first; --id) {
          folded = nn::input_region(graph, id, folded);
        }
        if (folded != in_region) {
          add(Severity::Error, "halo", index, slice.device,
              cat("Eq. 3 derivations disagree on the input region: fold "
                  "gives ",
                  cat_region(folded), ", segment_input_region gives ",
                  cat_region(in_region)));
        }
      }
    }
    // Summed strip overlap beyond one full map: the rows transferred (and
    // recomputed upstream) more than once.
    audit.overlap_rows = std::max(0, input_rows - in.height);
  }

  static std::string cat_region(const Region& region) {
    return cat("[", region.row_begin, ",", region.row_end, ")x[",
               region.col_begin, ",", region.col_end, ")");
  }

  // -- flops --------------------------------------------------------------

  void check_stage_flops(int index, const partition::Stage& stage,
                         StageAudit& audit) {
    audit.essential =
        cost::segment_flops_full(graph, stage.first, stage.last);
    if (stage.kind == partition::StageKind::Branch) {
      const std::vector<partition::Branch> branches =
          partition::block_branches(graph, {stage.first, stage.last});
      for (const partition::DeviceSlice& slice : stage.assignments) {
        for (const int b : slice.branches) {
          audit.executed += partition::branch_flops(
              graph, branches[static_cast<std::size_t>(b)]);
        }
      }
    } else {
      for (const partition::DeviceSlice& slice : stage.assignments) {
        audit.executed += cost::segment_flops(graph, stage.first, stage.last,
                                              slice.out_region);
      }
    }
    if (audit.executed <
        audit.essential * (1.0 - kFlopsTolerance)) {
      add(Severity::Error, "flops", index, -1,
          cat("devices execute ", audit.executed, " FLOPs but the segment "
              "needs ",
              audit.essential,
              " (Eq. 2) — some output elements are never computed"));
    }
    if (audit.redundancy() > options.redundancy_warning) {
      add(Severity::Warning, "flops", index, -1,
          cat("stage recomputes ", static_cast<int>(audit.redundancy() * 100),
              "% of its essential FLOPs in halos — consider fewer devices "
              "or a shallower fusion"));
    }
  }

  void check_plan_flops() {
    const std::vector<partition::DeviceWork> work =
        partition::plan_device_work(graph, cluster, plan);
    Flops executed = 0.0;
    Flops redundant = 0.0;
    for (const partition::DeviceWork& w : work) {
      executed += w.total;
      redundant += w.redundant;
      if (w.redundant < -kFlopsTolerance * std::max(1.0, w.total) ||
          w.redundant > w.total * (1.0 + kFlopsTolerance)) {
        add(Severity::Error, "flops", -1, w.device,
            cat("device redundancy accounting out of range: redundant=",
                w.redundant, " of total=", w.total));
      }
    }
    Flops essential = 0.0;
    for (const partition::Stage& stage : plan.stages) {
      essential += cost::segment_flops_full(graph, stage.first, stage.last);
    }
    const double error = std::abs((executed - redundant) - essential);
    if (error > essential * kFlopsTolerance) {
      add(Severity::Error, "flops", -1, -1,
          cat("plan-wide identity broken: executed - redundant = ",
              executed - redundant, " but one full execution needs ",
              essential, " FLOPs"));
    }
    report.executed = executed;
    report.essential = essential;
  }

  // -- memory -------------------------------------------------------------

  Bytes node_parameter_bytes(int id) const {
    const nn::Node& node = graph.node(id);
    const auto count = node.weights.size() + node.bias.size() +
                       node.bn_scale.size() + node.bn_shift.size();
    return kBytesPerScalar * static_cast<double>(count);
  }

  /// Peak live activation bytes while a device executes `slice` of `stage`:
  /// the max over nodes of (demanded input + demanded output), since the
  /// executor materializes one node at a time on top of its inputs.
  Bytes slice_peak_activations(const partition::Stage& stage,
                               const partition::DeviceSlice& slice) const {
    if (stage.kind == partition::StageKind::Branch) {
      const std::vector<partition::Branch> branches =
          partition::block_branches(graph, {stage.first, stage.last});
      Bytes peak = 0.0;
      const int in_channels = graph.node(stage.first).in_shape.channels;
      for (const int b : slice.branches) {
        const partition::Branch& branch =
            branches[static_cast<std::size_t>(b)];
        const Region in_region =
            partition::branch_input_region(graph, branch);
        Bytes branch_peak = cost::region_bytes(in_channels, in_region);
        for (int id = branch.first; id <= branch.last; ++id) {
          const Shape out = graph.node(id).out_shape;
          branch_peak = std::max(
              branch_peak,
              cost::region_bytes(in_channels, in_region) +
                  cost::region_bytes(out.channels,
                                     Region::full(out.height, out.width)));
        }
        peak = std::max(peak, branch_peak);
      }
      return peak;
    }
    if (slice.out_region.empty()) return 0.0;
    const std::vector<Region> demand =
        nn::segment_demand(graph, stage.first, stage.last, slice.out_region);
    const Region in_region = nn::segment_input_region(
        graph, stage.first, stage.last, slice.out_region);
    const int in_channels = graph.node(stage.first).in_shape.channels;
    Bytes peak = cost::region_bytes(in_channels, in_region);
    for (int id = stage.first; id <= stage.last; ++id) {
      const nn::Node& node = graph.node(id);
      Bytes inputs = 0.0;
      for (const int producer : node.inputs) {
        if (producer >= stage.first) {
          const Region& r =
              demand[static_cast<std::size_t>(producer - stage.first)];
          inputs += cost::region_bytes(
              graph.node(producer).out_shape.channels, r);
        } else {
          inputs += cost::region_bytes(in_channels, in_region);
        }
      }
      const Region& out =
          demand[static_cast<std::size_t>(id - stage.first)];
      peak = std::max(peak,
                      inputs + cost::region_bytes(node.out_shape.channels,
                                                  out));
    }
    return peak;
  }

  void check_memory() {
    std::map<DeviceId, DeviceFootprint> footprints;
    for (const partition::Stage& stage : plan.stages) {
      std::vector<partition::Branch> branches;
      if (stage.kind == partition::StageKind::Branch) {
        branches =
            partition::block_branches(graph, {stage.first, stage.last});
      }
      for (const partition::DeviceSlice& slice : stage.assignments) {
        DeviceFootprint& fp = footprints[slice.device];
        fp.device = slice.device;
        // Parameters stay resident for every segment the device serves.
        if (stage.kind == partition::StageKind::Branch) {
          for (const int b : slice.branches) {
            const partition::Branch& branch =
                branches[static_cast<std::size_t>(b)];
            for (int id = branch.first; id <= branch.last; ++id) {
              fp.weights += node_parameter_bytes(id);
            }
          }
        } else if (!slice.out_region.empty()) {
          for (int id = stage.first; id <= stage.last; ++id) {
            fp.weights += node_parameter_bytes(id);
          }
        }
        fp.peak_activations = std::max(
            fp.peak_activations, slice_peak_activations(stage, slice));
      }
    }
    for (auto& [device, fp] : footprints) {
      report.footprints.push_back(fp);
      if (options.device_memory_limit > 0.0 &&
          fp.total() > options.device_memory_limit) {
        add(Severity::Error, "memory", -1, device,
            cat("device ", device, " needs ",
                static_cast<long long>(fp.total()), " bytes (weights ",
                static_cast<long long>(fp.weights), " + activations ",
                static_cast<long long>(fp.peak_activations),
                ") but the budget is ",
                static_cast<long long>(options.device_memory_limit)));
      }
    }
  }

  // -- devices / cost -----------------------------------------------------

  void check_devices() {
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
      const partition::Stage& stage = plan.stages[s];
      for (const partition::DeviceSlice& slice : stage.assignments) {
        const bool idle = stage.kind == partition::StageKind::Spatial
                              ? slice.out_region.empty()
                              : slice.branches.empty();
        if (idle) {
          add(Severity::Info, "devices", static_cast<int>(s), slice.device,
              cat("device ", slice.device,
                  " is assigned to the stage but receives no work"));
        }
      }
    }
  }

  void check_cost() {
    const partition::PlanCost cost =
        partition::plan_cost(graph, cluster, network, plan);
    report.period = cost.period;
    report.latency = cost.latency;
    for (std::size_t s = 0; s < report.stages.size(); ++s) {
      report.stages[s].compute = cost.stages[s].compute;
      report.stages[s].comm = cost.stages[s].comm;
    }
    if (report.latency > options.latency_limit) {
      add(Severity::Error, "cost", -1, -1,
          cat("plan latency ", report.latency, " s exceeds T_lim = ",
              options.latency_limit, " s"));
    }
  }

  // -- driver -------------------------------------------------------------

  AuditReport run() {
    PICO_CHECK_MSG(graph.finalized(), "audit requires a finalized graph");
    report.scheme = plan.scheme;
    report.pipelined = plan.pipelined;
    report.graph_nodes = graph.size();

    const std::vector<bool> stage_ok = check_structure();
    bool all_ok = report.structure_ok;
    for (std::size_t s = 0; s < plan.stages.size(); ++s) {
      const partition::Stage& stage = plan.stages[s];
      StageAudit audit;
      audit.index = static_cast<int>(s);
      audit.first = stage.first;
      audit.last = stage.last;
      audit.branch_parallel = stage.kind == partition::StageKind::Branch;
      for (const partition::DeviceSlice& slice : stage.assignments) {
        const bool active = stage.kind == partition::StageKind::Spatial
                                ? !slice.out_region.empty()
                                : !slice.branches.empty();
        audit.active_devices += active ? 1 : 0;
      }
      if (stage_ok[s]) {
        if (stage.kind == partition::StageKind::Spatial) {
          check_halo(audit.index, stage, audit);
        }
        check_stage_flops(audit.index, stage, audit);
      } else {
        all_ok = false;
      }
      report.stages.push_back(audit);
    }
    if (all_ok) {
      // Whole-plan accounting needs every stage analysable.
      check_plan_flops();
      check_memory();
      check_devices();
      check_cost();
    }
    return std::move(report);
  }
};

}  // namespace

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

int AuditReport::count(Severity severity) const {
  int n = 0;
  for (const Finding& finding : findings) n += finding.severity == severity;
  return n;
}

AuditReport audit_plan(const nn::Graph& graph, const Cluster& cluster,
                       const NetworkModel& network,
                       const partition::Plan& plan,
                       const AuditOptions& options) {
  Auditor auditor{graph, cluster, network, plan, options, {}};
  return auditor.run();
}

std::string to_text(const AuditReport& report) {
  std::ostringstream os;
  os << "audit: " << report.scheme << " plan, " << report.stages.size()
     << " stage(s), " << (report.pipelined ? "pipelined" : "sequential")
     << " — " << (report.ok() ? "PASS" : "FAIL") << " (" << report.errors()
     << " error(s), " << report.warnings() << " warning(s))\n";
  if (report.structure_ok) {
    os << "  period " << report.period << " s, latency " << report.latency
       << " s, redundancy "
       << (report.essential > 0.0
               ? (report.executed - report.essential) / report.essential
               : 0.0)
       << "\n";
  }
  for (const StageAudit& stage : report.stages) {
    os << "  stage " << stage.index << ": nodes [" << stage.first << ".."
       << stage.last << "] " << stage.active_devices << " device(s)"
       << (stage.branch_parallel ? " [branch-parallel]" : "") << " compute "
       << stage.compute << " s, comm " << stage.comm << " s, redundancy "
       << stage.redundancy() << ", overlap " << stage.overlap_rows
       << " row(s)\n";
  }
  for (const DeviceFootprint& fp : report.footprints) {
    os << "  device " << fp.device << ": weights "
       << static_cast<long long>(fp.weights) << " B, peak activations "
       << static_cast<long long>(fp.peak_activations) << " B\n";
  }
  for (const Finding& finding : report.findings) {
    os << "  [" << severity_name(finding.severity) << "] " << finding.check;
    if (finding.stage >= 0) os << " stage " << finding.stage;
    if (finding.device >= 0) os << " device " << finding.device;
    os << ": " << finding.message << "\n";
  }
  return os.str();
}

std::string to_json(const AuditReport& report) {
  std::ostringstream os;
  os << "{";
  os << "\"scheme\":";
  write_json_string(os, report.scheme);
  os << ",\"pipelined\":" << (report.pipelined ? "true" : "false")
     << ",\"ok\":" << (report.ok() ? "true" : "false")
     << ",\"errors\":" << report.errors()
     << ",\"warnings\":" << report.warnings()
     << ",\"structure_ok\":" << (report.structure_ok ? "true" : "false")
     << ",\"essential_flops\":" << report.essential
     << ",\"executed_flops\":" << report.executed
     << ",\"period_s\":" << report.period
     << ",\"latency_s\":" << report.latency;
  os << ",\"stages\":[";
  for (std::size_t s = 0; s < report.stages.size(); ++s) {
    const StageAudit& stage = report.stages[s];
    os << (s ? "," : "") << "{\"index\":" << stage.index
       << ",\"first\":" << stage.first << ",\"last\":" << stage.last
       << ",\"branch_parallel\":" << (stage.branch_parallel ? "true" : "false")
       << ",\"active_devices\":" << stage.active_devices
       << ",\"essential_flops\":" << stage.essential
       << ",\"executed_flops\":" << stage.executed
       << ",\"redundancy\":" << stage.redundancy()
       << ",\"overlap_rows\":" << stage.overlap_rows
       << ",\"compute_s\":" << stage.compute
       << ",\"comm_s\":" << stage.comm << "}";
  }
  os << "],\"device_footprints\":[";
  for (std::size_t d = 0; d < report.footprints.size(); ++d) {
    const DeviceFootprint& fp = report.footprints[d];
    os << (d ? "," : "") << "{\"device\":" << fp.device
       << ",\"weights_bytes\":" << fp.weights
       << ",\"peak_activation_bytes\":" << fp.peak_activations << "}";
  }
  os << "],\"findings\":[";
  for (std::size_t f = 0; f < report.findings.size(); ++f) {
    const Finding& finding = report.findings[f];
    os << (f ? "," : "") << "{\"severity\":\""
       << severity_name(finding.severity) << "\",\"check\":";
    write_json_string(os, finding.check);
    os << ",\"stage\":" << finding.stage
       << ",\"device\":" << finding.device << ",\"message\":";
    write_json_string(os, finding.message);
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace pico::analysis
