#ifndef MARKETBENCH_HARNESS_H_
#define MARKETBENCH_HARNESS_H_

// Shared machinery of the marketplace benchmark: the wall clock (the only
// clock reads of the benchmark live in harness.cc), the in-memory span
// recorder used by traced runs, order statistics, and the result record
// every workload fills in.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/scheme.h"
#include "bench_common.h"
#include "exec/thread_pool.h"

namespace marketbench {

/// Seconds on a monotonic clock since process start.
double NowSeconds();

/// Times one interval: `Seconds()` since construction.
class Timer {
 public:
  Timer() : start_(NowSeconds()) {}
  double Seconds() const { return NowSeconds() - start_; }

 private:
  double start_;
};

/// q-quantile (0..1) of `values` by the nearest-rank rule; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The run's worker pool: `threads - 1` workers plus the calling thread,
/// or none (serial) for a single-thread run.
std::unique_ptr<freqywm::ThreadPool> MakePool(size_t threads);

/// Runs `body(i)` for every i in [0, n): across `pool` when there is one,
/// in order otherwise.
void ForEach(freqywm::ThreadPool* pool, size_t n,
             const std::function<void(size_t)>& body);

/// Peak resident set size of this process in MB (getrusage).
double PeakRssMb();

/// In-memory span recorder of a traced run. Each span has a name, start,
/// end, parent span and the id of the operation (copy, batch, rep) it
/// belongs to; spans nest by RAII scope on one thread. A disabled tracer
/// records nothing, so the untraced path pays one branch per scope.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Operation id stamped on spans opened from now on.
  void set_op(uint64_t op) { op_ = op; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Renames the span before it closes (for spans whose layer is only
    /// known afterwards, such as an escrow call that ran a checkpoint).
    void Rename(const char* name);

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Summed self time (duration minus the part covered by child spans)
  /// per span name, in seconds.
  std::map<std::string, double> SelfSeconds() const;

  /// Summed duration of every span called `name`.
  double TotalSeconds(const std::string& name) const;

  /// Writes every span as JSON lines to `path`; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    uint64_t op = 0;
  };

  bool enabled_;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// What one run of a workload produced. Metrics are keyed by the names
/// declared in BENCHMARK.json; `report` holds workload-specific figures
/// (named after the marketplace quantities they are) printed on a line
/// before the result.
struct RunResult {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, double> report;
  std::vector<std::string> notes;
  size_t attempted = 0;
  size_t failed = 0;
  freqywm::bench::IdentityGate gate;
};

/// Settings shared by every workload.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Toy sizes for the smoke test; never used for measurements.
  bool toy = false;
  /// Threads a workload may run (the submitting thread included).
  size_t threads = 4;
  /// Directory inside the source tree for the files a run writes.
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
};

/// Folds a traced run of `ops` operations (each one span named "op") into
/// `result`, every value per operation: each layer span's self time as
/// its per-layer metric, the operation time no layer span covers
/// (`trace.unattributed_s`), the traced wall against `untraced_wall_s` of
/// the same operations run untraced (`trace.overhead_s`), and the share
/// of operation time spent in `dominant_layers`.
void SummarizeTrace(const Tracer& tracer, size_t ops, double untraced_wall_s,
                    const std::vector<std::string>& dominant_layers,
                    RunResult* result);

/// Declared metric names with their units, in BENCHMARK.json order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Workload entry points (one per BENCHMARK.json workload).
void RunSellRows(const Config& config, RunResult* result);
void RunSellHist(const Config& config, RunResult* result);
void RunTrace(const Config& config, RunResult* result);

/// The durable-escrow write side (analysis.* per-layer metrics), measured
/// inside a traced `trace` run: one warm-up, one untraced and one traced
/// rep of 20k escrows of `keys` (cycled) into a fresh durable tenant, each
/// followed by a reopen.
void MeasureEscrowLayer(const Config& config,
                        const std::vector<freqywm::SchemeKey>& keys,
                        RunResult* result);

}  // namespace marketbench

#endif  // MARKETBENCH_HARNESS_H_
