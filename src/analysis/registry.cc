#include "analysis/registry.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "exec/batch_detector.h"

namespace freqywm {

namespace {
constexpr char kMagicV1[] = "freqywm-registry v1";
constexpr char kMagicV2[] = "freqywm-registry v2";

void SortStrongestFirst(std::vector<TraceMatch>& matches) {
  std::stable_sort(matches.begin(), matches.end(),
                   [](const TraceMatch& a, const TraceMatch& b) {
                     return a.detection.verified_fraction >
                            b.detection.verified_fraction;
                   });
}

}  // namespace

Status FingerprintRegistry::Register(const std::string& buyer_id,
                                     SchemeKey key) {
  if (buyer_id.empty() || buyer_id.find('\n') != std::string::npos) {
    return Status::InvalidArgument("buyer id must be a non-empty line");
  }
  if (key.scheme.empty() ||
      key.scheme.find_first_of(" \t\n") != std::string::npos) {
    return Status::InvalidArgument(
        "scheme tag must be non-empty without whitespace");
  }
  if (!buyer_ids_.insert(buyer_id).second) {
    return Status::InvalidArgument("buyer '" + buyer_id +
                                   "' already registered");
  }
  records_.push_back(FingerprintRecord{buyer_id, std::move(key)});
  return Status::OK();
}

Status FingerprintRegistry::Register(const std::string& buyer_id,
                                     const WatermarkSecrets& secrets) {
  return Register(buyer_id, SchemeKey{"freqywm", secrets.Serialize()});
}

Result<std::vector<std::vector<TraceMatch>>>
FingerprintRegistry::TraceSuspects(const std::vector<Histogram>& suspects,
                                   const BatchDetectOptions& options) const {
  std::vector<SchemeKey> keys;
  keys.reserve(records_.size());
  for (const auto& record : records_) keys.push_back(record.key);
  SessionDrainResult drained =
      BatchDetector::Session(options, std::move(keys))
          .DetectChecked(suspects, InterruptContext{});
  FREQYWM_RETURN_NOT_OK(drained.status);
  if (!drained.cell_errors.empty()) return drained.cell_errors[0].status;
  for (const Status& status : drained.key_status) {
    if (!status.ok() && status.code() != StatusCode::kNotFound) return status;
  }

  // Reduce each suspect's row: keep the accepted records in registration
  // order, then sort strongest first (stable, so registration order
  // breaks ties). Unregistered schemes yield default (rejected) results
  // and drop out.
  std::vector<std::vector<TraceMatch>> matches(suspects.size());
  for (size_t i = 0; i < suspects.size(); ++i) {
    for (size_t j = 0; j < records_.size(); ++j) {
      const DetectResult& detection = drained.verdicts[i][j];
      if (!detection.accepted) continue;
      matches[i].push_back(TraceMatch{records_[j].buyer_id,
                                      records_[j].key.scheme, detection});
    }
    SortStrongestFirst(matches[i]);
  }
  return matches;
}

std::string FingerprintRegistry::Serialize() const {
  std::ostringstream out;
  out << kMagicV2 << '\n';
  out << "records " << records_.size() << '\n';
  for (const auto& record : records_) {
    // v2 counts payload BYTES (not lines) so payloads of out-of-tree
    // schemes round-trip byte-exact whether or not they end in '\n'; a
    // separator newline (outside the count) follows the payload.
    out << "buyer " << record.key.payload.size() << ' '
        << record.key.scheme << ' ' << record.buyer_id << '\n';
    out << record.key.payload << '\n';
  }
  return out.str();
}

Result<FingerprintRegistry> FingerprintRegistry::Deserialize(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("empty registry text");
  }
  std::string_view magic = StripWhitespace(line);
  bool v1 = magic == kMagicV1;
  if (!v1 && magic != kMagicV2) {
    return Status::Corruption("bad registry magic");
  }
  if (!std::getline(in, line)) {
    return Status::Corruption("missing records line");
  }
  std::vector<std::string> head =
      Split(std::string(StripWhitespace(line)), ' ');
  Result<uint64_t> n = ParseU64(head.size() == 2 ? head[1] : "");
  if (head.size() != 2 || head[0] != "records" || !n.ok()) {
    return Status::Corruption("malformed records line");
  }

  FingerprintRegistry registry;
  for (uint64_t i = 0; i < n.value(); ++i) {
    if (!std::getline(in, line)) {
      return Status::Corruption("truncated registry");
    }
    // v2: "buyer <payload-bytes> <scheme> <buyer id...>"
    // v1: "buyer <payload-lines> <buyer id...>" (implicitly freqywm)
    std::vector<std::string> parts = Split(line, ' ');
    size_t min_parts = v1 ? 3 : 4;
    Result<uint64_t> size_field = ParseU64(parts.size() > 1 ? parts[1] : "");
    if (parts.size() < min_parts || parts[0] != "buyer" || !size_field.ok()) {
      return Status::Corruption("malformed buyer line");
    }
    const uint64_t payload_size = size_field.value();
    std::string scheme = v1 ? "freqywm" : parts[2];
    size_t id_offset = parts[0].size() + 1 + parts[1].size() + 1;
    if (!v1) id_offset += parts[2].size() + 1;
    std::string buyer_id = line.substr(id_offset);

    std::string payload;
    if (v1) {
      for (uint64_t l = 0; l < payload_size; ++l) {
        if (!std::getline(in, line)) {
          return Status::Corruption("truncated key for '" + buyer_id + "'");
        }
        payload += line;
        payload += '\n';
      }
    } else {
      if (payload_size > text.size()) {
        return Status::Corruption("payload size exceeds registry text");
      }
      payload.resize(payload_size);
      if (payload_size > 0 &&
          !in.read(&payload[0], static_cast<std::streamsize>(payload_size))) {
        return Status::Corruption("truncated key for '" + buyer_id + "'");
      }
      if (in.get() != '\n') {
        return Status::Corruption("missing payload separator for '" +
                                  buyer_id + "'");
      }
    }
    if (scheme == "freqywm") {
      // FreqyWM payloads are structured secrets; validate them eagerly so
      // corruption surfaces at load time, exactly as the v1 format did.
      FREQYWM_RETURN_NOT_OK(WatermarkSecrets::Deserialize(payload).status());
    }
    FREQYWM_RETURN_NOT_OK(
        registry.Register(buyer_id, SchemeKey{scheme, std::move(payload)}));
  }

  // Round-trip hardening (ISSUE 5): anything after the declared records
  // was previously accepted and silently dropped — an undercounting
  // `records` header would make Deserialize(Serialize(x)) lossy without a
  // whisper. Only trailing whitespace (the serializer's final newline) is
  // legitimate.
  char trailing;
  while (in.get(trailing)) {
    if (!std::isspace(static_cast<unsigned char>(trailing))) {
      return Status::InvalidArgument(
          "trailing data after the declared records");
    }
  }
  return registry;
}

}  // namespace freqywm
