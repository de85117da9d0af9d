#include "core/incremental.h"

#include <cmath>

#include "core/boundaries.h"
#include "core/eligible.h"
#include "crypto/pair_modulus.h"

namespace freqywm {
namespace {

/// Signed delta fits within `up`/`down` slack (kUnbounded = infinite).
bool DeltaFits(int64_t delta, uint64_t up, uint64_t down) {
  if (delta >= 0) {
    return up == TokenBoundary::kUnbounded ||
           static_cast<uint64_t>(delta) <= up;
  }
  return static_cast<uint64_t>(-delta) <= down;
}

}  // namespace

Result<RefreshResult> RefreshWatermark(const Histogram& drifted,
                                       const WatermarkSecrets& secrets,
                                       const RefreshOptions& options) {
  if (secrets.z < 2) {
    return Status::InvalidArgument("secrets carry invalid modulus bound");
  }
  if (options.max_churn_percent < 0 || options.max_churn_percent > 100) {
    return Status::InvalidArgument("churn budget must be in [0, 100]");
  }

  RefreshResult out;
  out.refreshed = drifted.Resorted();
  out.secrets.r = secrets.r;
  out.secrets.z = secrets.z;

  PairModulus modulus(secrets.r, secrets.z);
  const uint64_t churn_capacity = static_cast<uint64_t>(
      options.max_churn_percent / 100.0 *
      static_cast<double>(out.refreshed.total_count()));

  // Half-gap slack per rank, frozen at refresh start: since Lwm pairs are
  // token-disjoint, each token consumes only its own half of each shared
  // gap, so simultaneous repairs cannot cross (same argument as
  // EligibilityRule::kStrictHalfGap).
  std::vector<TokenBoundary> bounds = ComputeBoundaries(out.refreshed);
  const size_t n = out.refreshed.num_tokens();
  auto up_slack = [&](size_t rank) {
    return rank == 0 ? TokenBoundary::kUnbounded : bounds[rank].upper / 2;
  };
  auto down_slack = [&](size_t rank) {
    return rank + 1 == n ? bounds[rank].lower : bounds[rank].lower / 2;
  };

  for (const auto& pair : secrets.pairs) {
    ++out.report.pairs_checked;
    auto rank_i = out.refreshed.RankOf(pair.token_i);
    auto rank_j = out.refreshed.RankOf(pair.token_j);
    if (!rank_i || !rank_j) {
      ++out.report.pairs_dropped;
      continue;
    }
    uint64_t fi = out.refreshed.entry(*rank_i).count;
    uint64_t fj = out.refreshed.entry(*rank_j).count;
    uint64_t s = modulus.Compute(pair.token_i, pair.token_j);
    if (s < 2) {
      ++out.report.pairs_dropped;
      continue;
    }

    // The stored order has token_i as the (originally) more frequent one,
    // but drift may have flipped it; plan on the current ordering and map
    // deltas back.
    bool flipped = fj > fi;
    uint64_t hi = flipped ? fj : fi;
    uint64_t lo = flipped ? fi : fj;
    size_t hi_rank = flipped ? *rank_j : *rank_i;
    size_t lo_rank = flipped ? *rank_i : *rank_j;

    EligiblePair plan = MakePairPlan(hi_rank, lo_rank, hi - lo, s);
    if (plan.cost == 0) {
      ++out.report.pairs_intact;
      out.secrets.pairs.push_back(pair);
      continue;
    }
    if (out.report.total_churn + plan.cost > churn_capacity) {
      ++out.report.pairs_dropped;
      continue;
    }
    if (!DeltaFits(plan.delta_i, up_slack(hi_rank), down_slack(hi_rank)) ||
        !DeltaFits(plan.delta_j, up_slack(lo_rank), down_slack(lo_rank))) {
      ++out.report.pairs_dropped;
      continue;
    }

    const Token& hi_token = out.refreshed.entry(hi_rank).token;
    const Token& lo_token = out.refreshed.entry(lo_rank).token;
    Status si = out.refreshed.AddDelta(hi_token, plan.delta_i);
    Status sj = out.refreshed.AddDelta(lo_token, plan.delta_j);
    if (!si.ok() || !sj.ok()) {
      // Roll back whichever half applied; treat as infeasible.
      if (si.ok()) (void)out.refreshed.AddDelta(hi_token, -plan.delta_i);
      if (sj.ok()) (void)out.refreshed.AddDelta(lo_token, -plan.delta_j);
      ++out.report.pairs_dropped;
      continue;
    }
    out.report.total_churn += plan.cost;
    ++out.report.pairs_repaired;
    out.secrets.pairs.push_back(pair);
  }
  return out;
}

}  // namespace freqywm
