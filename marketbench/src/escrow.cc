// The write side of the registry: the owner escrows each buyer's key in a
// durable tenant registry. Measured once per traced `trace` run (its
// fsync-bound timings drift too much on a shared disk to gate a timed
// workload on them).
//
// One rep opens a `TenantContext` over a fresh `durable_dir` (default
// fsync-every-record WAL policy, default 4 MiB auto-checkpoint threshold),
// escrows 20k real FreqyWM keys (the trace workload's ~2 KB keys, cycled
// under distinct buyer ids), closes the tenant and reopens it. The
// reopened tenant must hold exactly the acknowledged keys.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/durable_registry.h"
#include "analysis/tenant.h"
#include "harness.h"

namespace marketbench {
namespace {

using namespace freqywm;

void RemoveRegistryFiles(const std::string& dir) {
  std::remove(DurableRegistry::SnapshotPath(dir).c_str());
  std::remove((DurableRegistry::SnapshotPath(dir) + ".tmp").c_str());
  std::remove(DurableRegistry::WalPath(dir).c_str());
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

std::string BuyerId(size_t i) { return "buyer-" + std::to_string(i); }

/// What one fill-and-reopen rep measured.
struct Rep {
  bool opened = false;
  size_t failed_escrows = 0;
  bool recovered_identical = false;
  std::vector<double> escrow_s;
  double recover_s = 0;
  // Traced reps only.
  std::vector<double> plain_s;
  uint64_t checkpoints = 0;
  uint64_t wal_bytes = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t payload_bytes = 0;
  uint64_t records_replayed = 0;
  bool snapshot_loads = true;
};

Rep RunRep(const std::vector<SchemeKey>& keys, size_t count,
           const std::string& dir, Tracer& tracer) {
  Rep rep;
  RemoveRegistryFiles(dir);
  ::mkdir(dir.c_str(), 0755);
  TenantQuotas quotas;
  quotas.durable_dir = dir;
  std::vector<size_t> acked;
  acked.reserve(count);
  {
    Tracer::Scope op(tracer, "op");
    auto tenant = TenantContext::Open("marketbench-escrow", quotas);
    if (!tenant.ok()) return rep;
    rep.opened = true;
    DurableRegistry* durable = tenant.value()->durable_registry();
    uint64_t frame_overhead = 0;
    for (size_t i = 0; i < count; ++i) {
      const SchemeKey& key = keys[i % keys.size()];
      const std::string buyer = BuyerId(i);
      DurabilityGauges before;
      if (tracer.enabled()) before = durable->gauges();
      Status status;
      double elapsed = 0;
      {
        Tracer::Scope span(tracer, "analysis.escrow_s");
        Timer timer;
        status = tenant.value()->Escrow(buyer, key);
        elapsed = timer.Seconds();
        if (tracer.enabled() &&
            durable->gauges().checkpoints_published !=
                before.checkpoints_published) {
          span.Rename("analysis.checkpoint_s");
        }
      }
      rep.escrow_s.push_back(elapsed);
      if (!status.ok()) {
        ++rep.failed_escrows;
        continue;
      }
      acked.push_back(i);
      if (!tracer.enabled()) continue;
      const DurabilityGauges after = durable->gauges();
      const uint64_t record = EncodeRegistration(buyer, key).size();
      rep.payload_bytes += key.payload.size();
      if (after.checkpoints_published == before.checkpoints_published) {
        rep.plain_s.push_back(elapsed);
        frame_overhead = after.wal_size_bytes - before.wal_size_bytes - record;
        rep.wal_bytes += after.wal_size_bytes - before.wal_size_bytes;
      } else {
        // The record was framed into the WAL that this call then rotated.
        rep.checkpoints += after.checkpoints_published -
                           before.checkpoints_published;
        rep.wal_bytes += record + frame_overhead;
        rep.snapshot_bytes += FileSize(DurableRegistry::SnapshotPath(dir));
      }
    }
  }

  if (tracer.enabled()) {
    Tracer::Scope baseline(tracer, "baseline");
    Tracer::Scope span(tracer, "analysis.snapshot_load_s");
    rep.snapshot_loads =
        FingerprintRegistry::LoadFromFile(DurableRegistry::SnapshotPath(dir))
            .ok();
  }

  {
    Timer recover_timer;
    auto reopened = TenantContext::Open("marketbench-escrow", quotas);
    rep.recover_s = recover_timer.Seconds();
    if (reopened.ok()) {
      rep.records_replayed =
          reopened.value()->Health().durability.records_replayed_at_open;
      const FingerprintRegistry recovered =
          reopened.value()->durable_registry()->Snapshot();
      bool identical = recovered.size() == acked.size();
      std::unordered_map<std::string, const SchemeKey*> by_buyer;
      for (const FingerprintRecord& record : recovered.records()) {
        by_buyer.emplace(record.buyer_id, &record.key);
      }
      for (size_t i : acked) {
        if (!identical) break;
        const auto it = by_buyer.find(BuyerId(i));
        identical = it != by_buyer.end() &&
                    *it->second == keys[i % keys.size()];
      }
      rep.recovered_identical = identical;
    }
  }
  RemoveRegistryFiles(dir);
  ::rmdir(dir.c_str());
  return rep;
}

/// Books one rep into the run's failure accounting: every escrow call is
/// an attempt, and so is the recovery check.
void Account(const Rep& rep, size_t count, RunResult* result) {
  result->attempted += count + 1;
  result->failed += rep.opened ? rep.failed_escrows : count;
  const bool recovered = result->gate.Check(
      "reopened tenant holds exactly the acked keys",
      rep.opened && rep.recovered_identical);
  if (!recovered) ++result->failed;
}

}  // namespace

void MeasureEscrowLayer(const Config& config,
                        const std::vector<SchemeKey>& keys,
                        RunResult* result) {
  const size_t count = config.toy ? 2'000 : 20'000;
  double payload = 0;
  for (const SchemeKey& key : keys) payload += key.payload.size();
  result->report["escrow_key_payload_bytes_mean"] = payload / keys.size();

  const std::string dir = config.work_dir + "/escrow-registry";
  Tracer untraced(false);
  // Untimed warm-up: a short rep primes the allocator and the file system.
  Account(RunRep(keys, count / 10, dir, untraced), count / 10, result);

  Rep plain = RunRep(keys, count, dir, untraced);
  Account(plain, count, result);
  double untraced_wall = 0;
  for (double s : plain.escrow_s) untraced_wall += s;
  result->report["escrow_ops_per_s"] = count / untraced_wall;
  result->report["escrow_p50_us"] = Median(plain.escrow_s) * 1e6;
  result->report["escrow_p999_us"] = Quantile(plain.escrow_s, 0.999) * 1e6;
  result->report["escrow_max_us"] = Quantile(plain.escrow_s, 1.0) * 1e6;
  result->report["escrow_recover_s"] = plain.recover_s;

  Tracer tracer(true);
  Rep rep = RunRep(keys, count, dir, tracer);
  Account(rep, count, result);
  result->gate.Check("the final snapshot loads on its own",
                     rep.snapshot_loads);
  std::map<std::string, double> self = tracer.SelfSeconds();
  for (const char* layer : {"analysis.escrow_s", "analysis.checkpoint_s",
                            "analysis.snapshot_load_s"}) {
    result->per_layer[layer] = self[layer];
  }
  result->per_layer["analysis.checkpoints"] =
      static_cast<double>(rep.checkpoints);
  result->per_layer["analysis.escrow_plain_p50_us"] =
      Median(rep.plain_s) * 1e6;
  result->per_layer["analysis.wal_bytes"] = static_cast<double>(rep.wal_bytes);
  result->per_layer["analysis.snapshot_bytes"] =
      static_cast<double>(rep.snapshot_bytes);
  result->per_layer["analysis.write_amplification"] =
      rep.payload_bytes > 0
          ? static_cast<double>(rep.wal_bytes + rep.snapshot_bytes) /
                static_cast<double>(rep.payload_bytes)
          : 0;
  result->per_layer["analysis.recover_s"] = rep.recover_s;
  result->per_layer["analysis.records_replayed"] =
      static_cast<double>(rep.records_replayed);

  const double rep_s = tracer.TotalSeconds("op");
  const double share = rep_s > 0 ? self["analysis.checkpoint_s"] / rep_s : 0;
  result->notes.push_back(
      "escrow rep dominant layer check: analysis.checkpoint_s = " +
      std::to_string(share * 100) + "% of " + std::to_string(count) +
      " escrows: " + (share > 0.5 ? "CONFIRMED" : "NOT CONFIRMED") +
      "; unattributed " + std::to_string(self["op"]) + " s, overhead " +
      std::to_string(rep_s - untraced_wall) + " s");
  if (!tracer.WriteJsonLines(config.work_dir + "/escrow_spans.jsonl")) {
    result->notes.push_back("could not write escrow_spans.jsonl");
  }
}

}  // namespace marketbench
