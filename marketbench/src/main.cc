// marketbench: the FreqyWM marketplace benchmark.
//
//   marketbench --workload <sell_rows|sell_hist|trace> --seed <n>
//               --seconds <s> --trace <0|1> [--toy] [--work-dir <dir>]
//               [--commit <id>]
//
// Prints the run context, the workload's own figures and the identity-gate
// verdict, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of a traced run with --trace 1.
// Exits 0 when the run's outputs were correct, 1 otherwise, 2 on usage.

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"

namespace {

using marketbench::Config;
using marketbench::MetricSpec;
using marketbench::RunResult;

#ifndef MARKETBENCH_BUILD_TYPE
#define MARKETBENCH_BUILD_TYPE "unknown"
#endif

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintContext(const Config& config) {
  std::printf(
      "context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"toy\": %s, \"threads\": %zu, \"nproc\": %u, "
      "\"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\"}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, config.toy ? "true" : "false",
      config.threads, std::thread::hardware_concurrency(),
      JsonEscape(CpuModel()).c_str(), JsonEscape(Compiler()).c_str(),
      MARKETBENCH_BUILD_TYPE, JsonEscape(config.commit).c_str());
}

void AppendMetric(std::string* json, const char* name, double value,
                  const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                json->empty() ? "" : ", ", name, value, unit);
  *json += buf;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "marketbench: %s\nusage: marketbench --workload "
               "<sell_rows|sell_hist|trace> --seed <n> --seconds <s> "
               "--trace <0|1> [--toy] [--work-dir <dir>] [--commit <id>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep every allocation on glibc's heap and never give it back, so after
  // the warm-up an operation reuses pages already mapped. With the default
  // settings each sell_rows copy mmapped and faulted in ~256 MB afresh, and
  // that kernel time (~0.2 s of a ~0.7 s copy) swung the median copy time
  // of one seed between 650 and 860 ms from run to run on a shared host.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);

  Config config;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  config.threads = std::min<size_t>(4, hw);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--toy") {
      config.toy = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir") {
      config.work_dir = argv[++i];
    } else if (arg == "--commit") {
      config.commit = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  ::mkdir(config.work_dir.c_str(), 0755);

  RunResult result;
  PrintContext(config);
  if (config.workload == "sell_rows") {
    marketbench::RunSellRows(config, &result);
  } else if (config.workload == "sell_hist") {
    marketbench::RunSellHist(config, &result);
  } else if (config.workload == "trace") {
    marketbench::RunTrace(config, &result);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("report {");
  for (auto it = result.report.begin(); it != result.report.end(); ++it) {
    std::printf("%s\"%s\": %.10g", it == result.report.begin() ? "" : ", ",
                it->first.c_str(), it->second);
  }
  std::printf("}\n");
  const int gate_status = result.gate.Finish();
  const bool correct = gate_status == 0 && result.failed == 0 &&
                       result.attempted > 0;

  std::string metrics;
  const auto& specs = config.trace ? marketbench::PerLayerMetrics()
                                   : marketbench::EndToEndMetrics();
  const auto& values = config.trace ? result.per_layer : result.end_to_end;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    // A layer the workload does not touch reads 0.
    AppendMetric(&metrics, spec.name, it == values.end() ? 0 : it->second,
                 spec.unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", result.attempted, result.failed,
      metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
