// Marketplace fingerprinting: the leak-tracing use case from the paper's
// introduction. A data seller embeds a DIFFERENT watermark for every buyer
// and records each scheme-tagged key in an (immutable) index — here the
// library's `FingerprintRegistry`. When a pirated copy surfaces — disguised
// by the pirate with random frequency noise — `TraceSuspects` runs every
// escrowed key against it through the `WatermarkScheme` interface and
// identifies which buyer leaked it.
//
// Parameter note: fingerprinting needs pairs whose moduli comfortably
// exceed both the pirate's noise and the detection threshold, otherwise
// every buyer's pairs verify by chance and nothing discriminates. The
// setup below (s in [16, 67), symmetric t = 3) keeps the true buyer near
// 80% verified pairs and innocent buyers near the ~(2t+1)/s chance floor.
//
// Act two drives the same screening workload through the engine's
// multi-tenant front door (DESIGN.md §14): buyer keys escrowed into a
// quota-bounded `TenantContext`, surfaced copies submitted through a
// `TenantSession` whose admission controller sheds overload with TYPED
// `kResourceExhausted` statuses (never silent drops, never unbounded
// queues), verdicts collected with `DrainChecked`, and a second tenant
// shown untouched by the first tenant's traffic.
//
// Act three makes the escrow ledger itself crash-proof (DESIGN.md §15):
// the same tenant, re-opened durable, write-ahead-logs every
// registration before acknowledging it. We then simulate a hard crash —
// process state gone, a half-written record torn at the log's tail —
// and show recovery replaying exactly the acknowledged escrows and the
// recovered ledger still tracing the leak.
//
//   $ ./examples/marketplace_fingerprinting

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/durable_registry.h"
#include "analysis/registry.h"
#include "analysis/tenant.h"
#include "analysis/wal.h"
#include "api/attack.h"
#include "api/factory.h"
#include "core/secrets.h"
#include "datagen/real_world.h"
#include "exec/cancellation.h"

using namespace freqywm;

int main() {
  // The asset: a taxi-trip style dataset (token = taxi id).
  Rng rng(2023);
  Histogram master = MakeChicagoTaxiLikeHistogram(rng, 1200, 800'000);
  std::printf("master dataset: %llu rows, %zu distinct taxis\n",
              static_cast<unsigned long long>(master.total_count()),
              master.num_tokens());

  // Sell three copies, each with its own fingerprint. The embedding knobs
  // travel as a generic option bag; only the per-buyer seed varies.
  //
  // min_pair_cost=8 is fingerprint hygiene: every pair must have required
  // a real frequency change well beyond the detection threshold, so other
  // buyers' copies cannot verify it by proximity.
  const char* buyers[] = {"acme-analytics", "hedgefund-42", "adtech-co"};
  FingerprintRegistry registry;
  std::vector<SchemeKey> keys;  // escrowed again into the tenant in act two
  std::vector<Histogram> delivered;
  size_t min_fingerprint_pairs = 0;

  for (size_t i = 0; i < 3; ++i) {
    OptionBag bag;
    bag.Set("budget", "2.0");
    bag.Set("z", "67");
    bag.Set("min_modulus", "16");
    bag.Set("min_pair_cost", "8");
    bag.Set("seed", std::to_string(1000 + i));  // per-buyer secret
    auto scheme = SchemeFactory::Create("freqywm", bag);
    if (!scheme.ok()) {
      std::printf("factory failed: %s\n",
                  scheme.status().ToString().c_str());
      return 1;
    }
    auto r = scheme.value()->Embed(master);
    if (!r.ok()) {
      std::printf("generation for %s failed: %s\n", buyers[i],
                  r.status().ToString().c_str());
      return 1;
    }
    std::printf("delivered to %-16s %zu fingerprint pairs, similarity "
                "%.4f%%\n",
                buyers[i], r.value().report.embedded_units,
                r.value().report.similarity_percent);
    if (min_fingerprint_pairs == 0 ||
        r.value().report.embedded_units < min_fingerprint_pairs) {
      min_fingerprint_pairs = r.value().report.embedded_units;
    }
    keys.push_back(r.value().key);
    if (Status s = registry.Register(buyers[i], std::move(r.value().key));
        !s.ok()) {
      std::printf("escrow failed: %s\n", s.ToString().c_str());
      return 1;
    }
    delivered.push_back(std::move(r.value().watermarked));
  }

  // A pirated copy appears on another marketplace: buyer #2's copy,
  // disguised with random frequency noise (4% of each token's rank
  // boundary — the §V-C1 destroy attack a cautious pirate would mount).
  Rng pirate_rng(555);
  Histogram pirated =
      MakePercentOfBoundaryAttack(4.0)->Apply(delivered[1], pirate_rng);
  std::printf("\npirated (noise-disguised) copy found: %llu rows\n",
              static_cast<unsigned long long>(pirated.total_count()));

  // Trace: the registry runs every escrowed key against the pirated copy
  // through its scheme's Detect — no per-buyer plumbing here. The true
  // origin verifies far above the chance floor; innocents stay below k.
  DetectOptions d;
  d.pair_threshold = 3;        // covers the pirate's noise
  d.symmetric_residue = true;  // noise drifts residues both ways
  d.min_pairs = std::max<size_t>(1, min_fingerprint_pairs / 2);
  BatchDetectOptions trace;
  trace.detect_options = d;
  Result<std::vector<std::vector<TraceMatch>>> traced =
      registry.TraceSuspects({pirated}, trace);
  if (!traced.ok()) {
    std::printf("trace failed: %s\n", traced.status().ToString().c_str());
    return 1;
  }
  const std::vector<TraceMatch> matches = traced.value()[0];

  std::printf("\n%-16s %-10s %-12s\n", "buyer", "scheme", "verified");
  for (const TraceMatch& match : matches) {
    std::printf("%-16s %-10s %zu/%zu (%.0f%%)\n", match.buyer_id.c_str(),
                match.scheme.c_str(), match.detection.pairs_verified,
                match.detection.pairs_found,
                match.detection.verified_fraction * 100);
  }
  if (!matches.empty()) {
    std::printf("\nleak traced to: %s (%.0f%% of fingerprint pairs "
                "verified)\n",
                matches[0].buyer_id.c_str(),
                matches[0].detection.verified_fraction * 100);
  } else {
    std::printf("\nno buyer matched — copy may predate fingerprinting\n");
  }

  // ---- Act two: routine screening through the multi-tenant engine ----
  // The seller's marketplace instance is one tenant of the detection
  // engine. Quotas size its slice: how many keys it may escrow, how much
  // screening work may be queued, how many sessions it may hold open.
  TenantQuotas quotas;
  quotas.max_escrowed_keys = 3;
  quotas.max_concurrent_sessions = 1;
  quotas.max_in_flight_suspects = 4;  // admitted-but-undrained budget
  quotas.max_pending_suspects = 4;    // Submit waiting room
  TenantContext seller("marketplace-eu", quotas);
  for (size_t i = 0; i < 3; ++i) {
    if (Status s = seller.Escrow(buyers[i], keys[i]); !s.ok()) {
      std::printf("tenant escrow failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // A fourth fingerprint does not fit the plan — the quota rejection is
  // typed, so the caller can distinguish "upgrade your plan" from a bug.
  if (Status s = seller.Escrow("late-buyer", keys[0]);
      s.code() == StatusCode::kResourceExhausted) {
    std::printf("\nescrow for late-buyer rejected (typed): %s\n",
                s.ToString().c_str());
  } else {
    std::printf("\nexpected a typed escrow-quota rejection, got: %s\n",
                s.ToString().c_str());
    return 1;
  }

  // Screen a crawl's worth of surfaced copies — the three legitimate
  // deliveries plus the pirated copy, over and over. Offered load (12
  // copies) deliberately exceeds the in-flight budget (4): the admission
  // controller sheds the overflow with typed `kResourceExhausted`, the
  // caller drains and re-offers. Nothing is silently dropped and the
  // queue never outgrows its budget.
  auto session = seller.OpenSession(/*num_threads=*/2);
  if (!session.ok()) {
    std::printf("open session failed: %s\n",
                session.status().ToString().c_str());
    return 1;
  }
  std::vector<Histogram> crawl;
  for (size_t i = 0; i < 12; ++i) {
    crawl.push_back(i % 4 == 3 ? pirated : delivered[i % 4]);
  }

  std::printf("\nscreening %zu surfaced copies (in-flight budget %zu)\n",
              crawl.size(), quotas.max_in_flight_suspects);
  size_t screened = 0;
  size_t sheds = 0;
  std::vector<std::vector<DetectResult>> verdicts;
  size_t next = 0;
  while (next < crawl.size()) {
    Status s = session.value()->TrySubmit({crawl[next]});
    if (s.ok()) {
      ++next;
      continue;
    }
    if (s.code() != StatusCode::kResourceExhausted) {
      std::printf("unexpected submit failure: %s\n", s.ToString().c_str());
      return 1;
    }
    ++sheds;  // typed shed: budget full — drain, then re-offer this copy
    SessionDrainResult drained = session.value()->DrainChecked({});
    if (!drained.status.ok()) {
      std::printf("drain failed: %s\n", drained.status.ToString().c_str());
      return 1;
    }
    screened += drained.verdicts.size();
    for (auto& row : drained.verdicts) verdicts.push_back(std::move(row));
  }
  SessionDrainResult tail = session.value()->DrainChecked({});
  screened += tail.verdicts.size();
  for (auto& row : tail.verdicts) verdicts.push_back(std::move(row));

  std::printf("screened %zu/%zu copies, %zu typed shed(s) handled\n",
              screened, crawl.size(), sheds);
  if (screened != crawl.size()) {
    std::printf("admitted work went missing — screened != offered\n");
    return 1;
  }
  std::printf("%-28s", "copy");
  for (const char* buyer : buyers) std::printf(" %-16s", buyer);
  std::printf("\n");
  for (size_t i = 0; i < verdicts.size(); ++i) {
    std::printf("%-28s",
                (i % 4 == 3 ? "pirated (noised)"
                            : (std::string("delivery to ") + buyers[i % 4])
                                  .c_str()));
    for (size_t j = 0; j < verdicts[i].size(); ++j) {
      std::printf(" %-16s", verdicts[i][j].accepted ? "MATCH" : "-");
    }
    std::printf("\n");
  }
  std::printf("(routine screening runs each key's recommended thresholds —\n"
              " it flags verbatim redistributions; the noise-disguised copy\n"
              " is what the tuned trace above exists for)\n");

  // Tenant isolation: a sibling tenant (another region's marketplace)
  // shares NOTHING with the EU tenant — not the registry, not the key
  // cache, not the admission counters. The EU crawl left no trace here.
  TenantContext sibling("marketplace-us", quotas);
  EngineHealthSnapshot eu = seller.Health();
  EngineHealthSnapshot us = sibling.Health();
  std::printf("\ntenant health        %-16s %-16s\n", "marketplace-eu",
              "marketplace-us");
  std::printf("  admitted           %-16llu %-16llu\n",
              static_cast<unsigned long long>(eu.admission.admitted),
              static_cast<unsigned long long>(us.admission.admitted));
  std::printf("  shed (typed)       %-16llu %-16llu\n",
              static_cast<unsigned long long>(eu.total_shed()),
              static_cast<unsigned long long>(us.total_shed()));
  std::printf("  cache hits/misses  %llu/%-14llu %llu/%-14llu\n",
              static_cast<unsigned long long>(eu.key_cache.hits),
              static_cast<unsigned long long>(eu.key_cache.misses),
              static_cast<unsigned long long>(us.key_cache.hits),
              static_cast<unsigned long long>(us.key_cache.misses));
  if (us.admission.admitted != 0 || us.total_shed() != 0 ||
      us.key_cache.hits + us.key_cache.misses != 0) {
    std::printf("tenant isolation violated — sibling saw traffic\n");
    return 1;
  }

  // ---- Act three: durable escrow and crash recovery (DESIGN.md §15) ----
  // The escrow ledger IS the business: lose it and every delivered copy
  // becomes untraceable. A durable tenant appends each registration to a
  // write-ahead log and fsyncs BEFORE acknowledging (fsync=every), so a
  // crash — even one that tears a record in half mid-write — costs at
  // most work that was never acknowledged.
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string durable_dir =
      std::string(tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir : "/tmp") +
      "/marketplace_escrow";
  std::remove(DurableRegistry::SnapshotPath(durable_dir).c_str());
  std::remove(DurableRegistry::WalPath(durable_dir).c_str());
  ::rmdir(durable_dir.c_str());
  ::mkdir(durable_dir.c_str(), 0755);

  TenantQuotas durable_quotas = quotas;
  durable_quotas.durable_dir = durable_dir;
  {
    auto durable = TenantContext::Open("marketplace-eu", durable_quotas);
    if (!durable.ok()) {
      std::printf("durable tenant open failed: %s\n",
                  durable.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < 3; ++i) {
      if (Status s = durable.value()->Escrow(buyers[i], keys[i]); !s.ok()) {
        std::printf("durable escrow failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    EngineHealthSnapshot live = durable.value()->Health();
    std::printf("\ndurable escrow: 3 registrations acknowledged, WAL %llu "
                "bytes (fsync=every)\n",
                static_cast<unsigned long long>(
                    live.durability.wal_size_bytes));
  }  // <- simulated crash: every in-memory structure is gone; the WAL is not

  // The crash also interrupted a FOURTH registration mid-append: append
  // the first half of a real frame, exactly what a dying process leaves.
  {
    const std::string torn =
        WriteAheadLog::EncodeFrame(EncodeRegistration("late-buyer", keys[0]));
    std::FILE* wal =
        std::fopen(DurableRegistry::WalPath(durable_dir).c_str(), "ab");
    if (wal == nullptr) return 1;
    std::fwrite(torn.data(), 1, torn.size() / 2, wal);
    std::fclose(wal);
  }

  auto recovered = TenantContext::Open("marketplace-eu", durable_quotas);
  if (!recovered.ok()) {
    std::printf("recovery failed: %s\n",
                recovered.status().ToString().c_str());
    return 1;
  }
  EngineHealthSnapshot after = recovered.value()->Health();
  std::printf("crash + recovery: %llu record(s) replayed from the WAL, "
              "torn tail %s (the unacknowledged half-record, discarded)\n",
              static_cast<unsigned long long>(
                  after.durability.records_replayed_at_open),
              after.durability.torn_tail_truncated_at_open ? "truncated"
                                                           : "absent");
  if (after.durability.records_replayed_at_open != 3 ||
      !after.durability.torn_tail_truncated_at_open) {
    std::printf("recovery did not match the acknowledged prefix\n");
    return 1;
  }

  // The recovered ledger still traces the pirated copy to the same buyer.
  Result<std::vector<std::vector<TraceMatch>>> retraced =
      recovered.value()->durable_registry()->Snapshot().TraceSuspects(
          {pirated}, trace);
  if (!retraced.ok() || retraced.value()[0].empty() || matches.empty() ||
      retraced.value()[0][0].buyer_id != matches[0].buyer_id) {
    std::printf("recovered ledger failed to re-trace the leak\n");
    return 1;
  }
  const TraceMatch& retrace = retraced.value()[0][0];
  std::printf("recovered ledger re-traces the leak to: %s (%.0f%% "
              "verified)\n",
              retrace.buyer_id.c_str(),
              retrace.detection.verified_fraction * 100);

  std::remove(DurableRegistry::SnapshotPath(durable_dir).c_str());
  std::remove(DurableRegistry::WalPath(durable_dir).c_str());
  ::rmdir(durable_dir.c_str());

  return matches.empty() ? 1 : 0;
}
