// bench_overload: load generator for the admission/tenancy layer
// (DESIGN.md §14). Drives a tenant-fronted detection session at offered
// loads of roughly 1x, 2x and 10x its capacity quotas and reports the
// graceful-degradation curve: goodput (drained rows/sec), shed rate,
// and p50/p99 submit-call latency per load point. Under any offered
// load the invariants are the ISSUE 9 acceptance criteria — pending
// work bounded by the in-flight quota (every queued suspect holds an
// admission unit), every shed typed kResourceExhausted (or
// kDeadlineExceeded/kCancelled for interrupted waits), and admitted
// work byte-identical to the unthrottled serial reference.
//
// The identity section re-runs the acceptance matrix through tenant
// sessions at 1/2/4/8 threads and routes every comparison through the
// shared `bench::IdentityGate` (wmlint's identity_gate contract): the
// process exits non-zero on any verdict mismatch, never on timing.
// Results land in BENCH_overload.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/tenant.h"
#include "api/factory.h"
#include "bench_common.h"
#include "common/stopwatch.h"
#include "exec/batch_detector.h"
#include "exec/cancellation.h"

using namespace freqywm;

namespace {

constexpr size_t kNumKeys = 4;
constexpr size_t kProducers = 4;
constexpr size_t kInFlightQuota = 16;
constexpr size_t kPendingQuota = 16;

size_t BaseOffersPerProducer() { return bench::PerfSmoke() ? 8 : 40; }

struct Workload {
  std::vector<SchemeKey> keys;
  std::vector<Histogram> suspects;  // [0] doubles as the load suspect
  std::vector<std::vector<DetectResult>> reference;  // unthrottled serial
};

Workload MakeWorkload() {
  Workload w;
  Histogram original = bench::MakeSynthetic(0.6, 4242, 1000, 200000);
  for (size_t b = 0; b < kNumKeys; ++b) {
    OptionBag bag;
    bag.Set("seed", std::to_string(9000 + b));
    bag.Set("strategy", "greedy");
    auto scheme = SchemeFactory::Create("freqywm", bag);
    if (!scheme.ok()) continue;
    auto outcome = scheme.value()->Embed(original);
    if (!outcome.ok()) continue;
    w.keys.push_back(outcome.value().key);
    w.suspects.push_back(outcome.value().watermarked);
  }
  w.suspects.push_back(original);

  w.reference = BatchDetector::Session(BatchDetectOptions{}, w.keys)
                    .DetectChecked(w.suspects, InterruptContext{})
                    .verdicts;
  return w;
}

TenantQuotas LoadQuotas() {
  TenantQuotas quotas;
  quotas.max_in_flight_suspects = kInFlightQuota;
  quotas.max_pending_suspects = kPendingQuota;
  return quotas;
}

double PercentileMillis(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0;
  const size_t idx = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_ms.size() - 1)));
  return sorted_ms[idx];
}

struct LoadPoint {
  size_t multiplier = 0;
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t drained = 0;
  double elapsed_s = 0;
  double goodput_rows_per_s = 0;
  double shed_fraction = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t peak_pending = 0;
  bool all_typed = true;
  uint64_t identity_violations = 0;
};

/// One load point: `kProducers` threads each offer
/// `multiplier * BaseOffersPerProducer()` single-suspect submissions as
/// fast as they can against the fixed quotas; a drainer keeps the
/// session moving and checks every evaluated cell against the clean
/// reference row.
LoadPoint RunLoadPoint(const Workload& w, size_t multiplier) {
  LoadPoint point;
  point.multiplier = multiplier;

  TenantContext tenant("bench-load", LoadQuotas());
  for (size_t i = 0; i < w.keys.size(); ++i) {
    Status escrowed = tenant.Escrow("buyer-" + std::to_string(i), w.keys[i]);
    if (!escrowed.ok()) std::printf("escrow failed: %s\n", escrowed.message().c_str());
  }
  auto session = tenant.OpenSession(2);
  if (!session.ok()) return point;
  TenantSession& ts = *session.value();

  const size_t per_producer = multiplier * BaseOffersPerProducer();
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<bool> all_typed{true};
  std::atomic<bool> done{false};
  std::vector<std::vector<double>> latencies(kProducers);

  Stopwatch wall;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      latencies[p].reserve(per_producer);
      for (size_t i = 0; i < per_producer; ++i) {
        std::vector<Histogram> batch{w.suspects[0]};
        Stopwatch call;
        Status status;
        if (p % 2 == 0) {
          status = ts.TrySubmit(std::move(batch));
        } else {
          status = ts.Submit(
              std::move(batch),
              InterruptContext{
                  CancellationToken(),
                  Deadline::After(std::chrono::milliseconds(5))});
        }
        latencies[p].push_back(call.ElapsedSeconds() * 1e3);
        if (status.ok()) {
          admitted.fetch_add(1);
        } else {
          shed.fetch_add(1);
          if (status.code() != StatusCode::kResourceExhausted &&
              status.code() != StatusCode::kDeadlineExceeded &&
              status.code() != StatusCode::kCancelled) {
            all_typed.store(false);
          }
        }
      }
    });
  }

  uint64_t drained = 0;
  uint64_t violations = 0;
  size_t peak_pending = 0;
  auto drain_once = [&] {
    peak_pending = std::max(peak_pending, ts.pending_suspects());
    SessionDrainResult result = ts.DrainChecked(InterruptContext{});
    for (size_t i = 0; i < result.verdicts.size(); ++i) {
      for (size_t j = 0; j < w.keys.size(); ++j) {
        if (result.evaluated[i * w.keys.size() + j] &&
            !(result.verdicts[i][j] == w.reference[0][j])) {
          ++violations;
        }
      }
    }
    drained += result.verdicts.size();
  };
  std::thread drainer([&] {
    while (!done.load()) drain_once();
  });
  for (auto& t : producers) t.join();
  done.store(true);
  drainer.join();
  drain_once();
  point.elapsed_s = wall.ElapsedSeconds();

  std::vector<double> all_ms;
  for (const auto& per_thread : latencies) {
    all_ms.insert(all_ms.end(), per_thread.begin(), per_thread.end());
  }
  std::sort(all_ms.begin(), all_ms.end());

  point.offered = kProducers * per_producer;
  point.admitted = admitted.load();
  point.shed = shed.load();
  point.drained = drained;
  point.goodput_rows_per_s =
      point.elapsed_s > 0 ? static_cast<double>(drained) / point.elapsed_s : 0;
  point.shed_fraction =
      point.offered > 0
          ? static_cast<double>(point.shed) / static_cast<double>(point.offered)
          : 0;
  point.p50_ms = PercentileMillis(all_ms, 0.50);
  point.p99_ms = PercentileMillis(all_ms, 0.99);
  point.peak_pending = peak_pending;
  point.all_typed = all_typed.load();
  point.identity_violations = violations;
  return point;
}

/// The identity section: the full suspect set through tenant sessions
/// at several thread counts, compared cell-for-cell against the
/// unthrottled serial reference.
bool IdentityAcrossThreadCounts(const Workload& w, bench::IdentityGate& gate) {
  bool all_ok = true;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    TenantQuotas quotas;
    quotas.max_in_flight_suspects = w.suspects.size();
    quotas.max_pending_suspects = w.suspects.size();
    TenantContext tenant("bench-identity", quotas);
    for (size_t i = 0; i < w.keys.size(); ++i) {
      (void)tenant.Escrow("buyer-" + std::to_string(i), w.keys[i]);
    }
    auto session = tenant.OpenSession(threads);
    if (!session.ok()) {
      all_ok = gate.Check("open tenant session", false) && all_ok;
      continue;
    }
    Status submitted =
        session.value()->Submit(w.suspects, InterruptContext{});
    if (!submitted.ok()) {
      all_ok = gate.Check("submit within quota", false) && all_ok;
      continue;
    }
    SessionDrainResult result =
        session.value()->DrainChecked(InterruptContext{});
    bool identical = result.status.ok() &&
                     result.verdicts.size() == w.reference.size();
    if (identical) {
      for (size_t i = 0; i < w.reference.size(); ++i) {
        for (size_t j = 0; j < w.keys.size(); ++j) {
          if (!(result.verdicts[i][j] == w.reference[i][j])) {
            identical = false;
          }
        }
      }
    }
    all_ok = gate.Check("tenant session verdicts @ " +
                            std::to_string(threads) + " threads",
                        identical) &&
             all_ok;
  }
  return all_ok;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "bench_overload: admission, shedding and goodput under load spikes",
      "DESIGN.md SS14 (ISSUE 9) - overload-safe detection engine");

  Workload w = MakeWorkload();
  if (w.keys.size() != kNumKeys) {
    std::printf("workload construction failed (%zu/%zu keys)\n",
                w.keys.size(), kNumKeys);
    return 1;
  }

  bench::IdentityGate gate;
  std::vector<LoadPoint> points;
  for (size_t multiplier : {1u, 2u, 10u}) {
    LoadPoint point = RunLoadPoint(w, multiplier);
    points.push_back(point);
    std::printf(
        "\nload %2zux: offered %llu  admitted %llu  shed %llu (%.1f%%)\n"
        "         goodput %.0f rows/s  p50 %.3f ms  p99 %.3f ms\n"
        "         peak pending %zu (in-flight quota %zu)\n",
        point.multiplier, static_cast<unsigned long long>(point.offered),
        static_cast<unsigned long long>(point.admitted),
        static_cast<unsigned long long>(point.shed),
        100.0 * point.shed_fraction, point.goodput_rows_per_s, point.p50_ms,
        point.p99_ms, point.peak_pending, kInFlightQuota);
    gate.Check("load " + std::to_string(multiplier) +
                   "x: all sheds typed",
               point.all_typed);
    gate.Check("load " + std::to_string(multiplier) +
                   "x: admitted == drained",
               point.admitted == point.drained);
    gate.Check("load " + std::to_string(multiplier) +
                   "x: pending bounded by in-flight quota",
               point.peak_pending <= kInFlightQuota);
    gate.Check("load " + std::to_string(multiplier) +
                   "x: admitted verdicts byte-identical",
               point.identity_violations == 0);
  }

  std::printf("\n-- identity: tenant sessions vs unthrottled serial --\n");
  IdentityAcrossThreadCounts(w, gate);

  std::ostringstream json;
  json << "{\n  \"bench\": \"overload\",\n  \"load_points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const LoadPoint& p = points[i];
    json << "    {\"multiplier\": " << p.multiplier
         << ", \"offered\": " << p.offered
         << ", \"admitted\": " << p.admitted << ", \"shed\": " << p.shed
         << ", \"goodput_rows_per_s\": " << p.goodput_rows_per_s
         << ", \"shed_fraction\": " << p.shed_fraction
         << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
         << ", \"peak_pending\": " << p.peak_pending << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"identity_checks\": " << gate.checks()
       << ",\n  \"all_identical\": "
       << (gate.all_identical() ? "true" : "false") << "\n}\n";
  bench::WriteJsonFile(bench::JsonOutputPath("BENCH_overload.json"),
                       json.str());

  return gate.Finish();
}
