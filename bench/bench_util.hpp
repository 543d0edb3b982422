// Shared helpers for the paper-reproduction bench harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (§II / §V); these helpers pin the common experimental setup —
// the 50 Mbps WiFi model and the Raspberry-Pi cluster calibration — and
// provide fixed-width table printing so the output reads like the paper's
// rows/series.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"

namespace pico::bench {

/// The paper's network: one 50 Mbps WiFi access point.
inline NetworkModel paper_network() {
  NetworkModel net;
  net.bandwidth = 50e6 / 8.0;
  net.per_message_overhead = 1e-3;
  return net;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 12) {
  for (const std::string& cell : cells) {
    std::printf("%*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline std::string fmt(double value, int decimals = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

inline std::string fmt_pct(double fraction, int decimals = 2) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", decimals,
                fraction * 100.0);
  return buffer;
}

/// Machine-readable companion to the printed tables: accumulates named
/// sample series and writes `BENCH_<name>.json` on destruction — into
/// $PICO_BENCH_JSON_DIR when set, else the working directory — with
/// count/mean/p50/p99 per series so CI can diff bench results across runs.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  ~BenchJson() {
    // Best effort: a bench must never fail because its JSON sidecar can't
    // be written.
    try {
      write();
    } catch (...) {
    }
  }

  void param(const std::string& key, const std::string& value) {
    params_[key] = json_string(value);
  }
  void param(const std::string& key, double value) {
    params_[key] = json_number(value);
  }

  void sample(const std::string& series, double value) {
    series_[series].push_back(value);
  }

  void write() const {
    const char* dir = std::getenv("PICO_BENCH_JSON_DIR");
    std::string file_stem;
    for (const char c : name_) {
      file_stem.push_back(std::isalnum(static_cast<unsigned char>(c))
                              ? c
                              : '_');
    }
    const std::string path = (dir && *dir ? std::string(dir) + "/" : "") +
                             "BENCH_" + file_stem + ".json";
    std::ofstream file(path, std::ios::trunc);
    if (!file.good()) return;
    file << "{\n  \"name\": " << json_string(name_) << ",\n  \"params\": {";
    bool first = true;
    for (const auto& [key, value] : params_) {
      file << (first ? "" : ",") << "\n    " << json_string(key) << ": "
           << value;
      first = false;
    }
    file << (params_.empty() ? "" : "\n  ") << "},\n  \"series\": {";
    first = true;
    for (const auto& [key, values] : series_) {
      double sum = 0.0;
      for (const double v : values) sum += v;
      const double mean =
          values.empty() ? 0.0 : sum / static_cast<double>(values.size());
      file << (first ? "" : ",") << "\n    " << json_string(key)
           << ": {\"count\": " << values.size()
           << ", \"mean\": " << json_number(mean)
           << ", \"p50\": " << json_number(percentile(values, 0.5))
           << ", \"p99\": " << json_number(percentile(values, 0.99))
           << "}";
      first = false;
    }
    file << (series_.empty() ? "" : "\n  ") << "}\n}\n";
  }

 private:
  std::string name_;
  std::map<std::string, std::string> params_;
  std::map<std::string, std::vector<double>> series_;
};

}  // namespace pico::bench
