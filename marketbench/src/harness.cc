#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>

namespace marketbench {

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::unique_ptr<freqywm::ThreadPool> MakePool(size_t threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<freqywm::ThreadPool>(threads - 1);
}

void ForEach(freqywm::ThreadPool* pool, size_t n,
             const std::function<void(size_t)>& body) {
  if (pool != nullptr) {
    pool->ParallelFor(n, body);
    return;
  }
  for (size_t i = 0; i < n; ++i) body(i);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  Span span;
  span.name = name;
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.op = tracer_.op_;
  span.start = NowSeconds();
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<size_t>(index_)].end = NowSeconds();
  tracer_.open_.pop_back();
}

void Tracer::Scope::Rename(const char* name) {
  if (index_ >= 0) tracer_.spans_[static_cast<size_t>(index_)].name = name;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end - spans_[i].start - covered[i];
  }
  return self;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end - span.start;
  }
  return total;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"run\": %llu}\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  return std::fclose(f) == 0;
}

void SummarizeTrace(const Tracer& tracer, size_t ops, double untraced_wall_s,
                    const std::vector<std::string>& dominant_layers,
                    RunResult* result) {
  std::set<std::string> layer_names;
  for (const MetricSpec& spec : PerLayerMetrics()) {
    layer_names.insert(spec.name);
  }

  const std::map<std::string, double> self = tracer.SelfSeconds();
  const double op_total = tracer.TotalSeconds("op");
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0;

  for (const auto& [name, seconds] : self) {
    if (layer_names.count(name) > 0) result->per_layer[name] = seconds * per_op;
  }
  const auto op_self = self.find("op");
  const double unattributed = op_self == self.end() ? 0 : op_self->second;

  double dominant = 0;
  for (const std::string& layer : dominant_layers) {
    const auto it = self.find(layer);
    if (it != self.end()) dominant += it->second;
  }
  const double share = op_total > 0 ? dominant / op_total : 0;

  result->per_layer["trace.wall_s"] = op_total * per_op;
  result->per_layer["trace.untraced_wall_s"] = untraced_wall_s * per_op;
  result->per_layer["trace.overhead_s"] = (op_total - untraced_wall_s) * per_op;
  result->per_layer["trace.unattributed_s"] = unattributed * per_op;
  result->per_layer["trace.dominant_share"] = share;

  std::string joined;
  for (const std::string& layer : dominant_layers) {
    joined += (joined.empty() ? "" : " + ") + layer;
  }
  const bool confirmed = share > 0.5;
  result->notes.push_back("dominant layer check: " + joined + " = " +
                          std::to_string(share * 100) + "% of op time over " +
                          std::to_string(ops) + " ops: " +
                          (confirmed ? "CONFIRMED" : "NOT CONFIRMED"));
  result->notes.push_back(
      "trace: " + std::to_string(tracer.size()) + " spans, unattributed " +
      std::to_string(unattributed * per_op) + " s/op, overhead " +
      std::to_string((op_total - untraced_wall_s) * per_op) + " s/op");
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ops_per_s", "ops/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"data.histogram_s", "s"},
      {"data.histogram_serial_s", "s"},
      {"data.rows", "count"},
      {"core.transform_s", "s"},
      {"core.eligible_scan_s", "s"},
      {"core.eligible_scan_serial_s", "s"},
      {"core.eligible_pairs", "count"},
      {"matching.select_s", "s"},
      {"matching.active_vertices", "count"},
      {"matching.vertices", "count"},
      {"core.chosen_pairs", "count"},
      {"core.apply_s", "s"},
      {"stats.similarity_s", "s"},
      {"api.prepare_s", "s"},
      {"exec.session_open_s", "s"},
      {"exec.cache_hits", "count"},
      {"exec.cache_misses", "count"},
      {"exec.shed", "count"},
      {"exec.admission_s", "s"},
      {"exec.drain_s", "s"},
      {"exec.drain_serial_s", "s"},
      {"exec.cells", "count"},
      {"exec.vocabulary_size", "count"},
      {"core.detect_cell_us", "us"},
      {"core.false_accept_rate", "fraction"},
      {"core.miss_rate", "fraction"},
      {"analysis.escrow_s", "s"},
      {"analysis.checkpoints", "count"},
      {"analysis.checkpoint_s", "s"},
      {"analysis.escrow_plain_p50_us", "us"},
      {"analysis.wal_bytes", "bytes"},
      {"analysis.snapshot_bytes", "bytes"},
      {"analysis.write_amplification", "ratio"},
      {"analysis.recover_s", "s"},
      {"analysis.snapshot_load_s", "s"},
      {"analysis.records_replayed", "count"},
      {"trace.wall_s", "s"},
      {"trace.untraced_wall_s", "s"},
      {"trace.overhead_s", "s"},
      {"trace.unattributed_s", "s"},
      {"trace.dominant_share", "fraction"},
  };
  return specs;
}

}  // namespace marketbench
