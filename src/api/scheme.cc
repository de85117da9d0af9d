#include "api/scheme.h"

#include <fstream>
#include <sstream>

#include "common/random.h"
#include "common/string_util.h"
#include "core/watermark.h"

namespace freqywm {

namespace {
constexpr char kMagic[] = "freqywm-scheme-key v1";
}  // namespace

std::string SchemeKey::Serialize() const {
  std::ostringstream out;
  out << kMagic << '\n';
  out << "scheme " << scheme << '\n';
  out << payload;
  return out.str();
}

Result<SchemeKey> SchemeKey::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || StripWhitespace(line) != kMagic) {
    return Status::Corruption("bad scheme-key magic");
  }
  if (!std::getline(in, line)) {
    return Status::Corruption("missing scheme line");
  }
  std::vector<std::string> parts =
      Split(std::string(StripWhitespace(line)), ' ');
  if (parts.size() != 2 || parts[0] != "scheme" || parts[1].empty()) {
    return Status::Corruption("malformed scheme line");
  }
  SchemeKey key;
  key.scheme = parts[1];
  // The payload is the rest of the text, verbatim.
  size_t header_end = text.find('\n');
  if (header_end != std::string::npos) {
    header_end = text.find('\n', header_end + 1);
  }
  if (header_end != std::string::npos) {
    key.payload = text.substr(header_end + 1);
  }
  return key;
}

Status SchemeKey::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  out << Serialize();
  out.close();  // flush, so a full disk is reported here
  return out.good() ? Status::OK()
                    : Status::Corruption("short write to '" + path + "'");
}

Result<SchemeKey> SchemeKey::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return Deserialize(buf.str());
}

Result<EmbedOutcome> WatermarkScheme::Embed(const Histogram& original) const {
  return Embed(original, ExecContext{});
}

Result<DatasetEmbedOutcome> WatermarkScheme::EmbedDataset(
    const Dataset& original) const {
  return EmbedDataset(original, ExecContext{});
}

Result<DatasetEmbedOutcome> WatermarkScheme::EmbedDataset(
    const Dataset& original, const ExecContext& exec) const {
  // One sharded id count feeds the histogram and the transform
  // (DESIGN.md §17); the count, the scheme's Embed and the transform's
  // row passes all poll the context's cancellation/deadline.
  FREQYWM_ASSIGN_OR_RETURN(ShardedIdCounts counts, exec.CountIds(original));
  const Histogram hist =
      Histogram::FromIdCounts(original.dictionary(), counts.total);
  FREQYWM_ASSIGN_OR_RETURN(EmbedOutcome outcome, Embed(hist, exec));
  Rng rng(dataset_transform_seed(outcome.key));
  DatasetEmbedOutcome out;
  FREQYWM_ASSIGN_OR_RETURN(
      out.watermarked, TransformDataset(original, counts, &hist,
                                        outcome.watermarked, rng, exec));
  out.key = std::move(outcome.key);
  out.report = outcome.report;
  return out;
}

DetectResult PreparedKey::Detect(const DenseSuspectCounts& /*counts*/,
                                 const uint32_t* /*dense_ids*/,
                                 const DetectOptions& /*options*/) const {
  // Reached only on a contract violation (a vocabulary without a dense
  // override); reject rather than crash, matching the malformed-key
  // convention.
  return DetectResult{};
}

DetectResult WatermarkScheme::Detect(const Histogram& suspect,
                                     const SchemeKey& key,
                                     const DetectOptions& options) const {
  return Prepare(key)->Detect(suspect, options);
}

DetectResult WatermarkScheme::Detect(const DenseSuspectCounts& counts,
                                     const uint32_t* dense_ids,
                                     const PreparedKey& prepared,
                                     const DetectOptions& options) const {
  return prepared.Detect(counts, dense_ids, options);
}

DetectOptions WatermarkScheme::RecommendedDetectOptions(
    const SchemeKey& key) const {
  return Prepare(key)->recommended_options();
}

Result<EmbedOutcome> WatermarkScheme::Refresh(const Histogram& /*drifted*/,
                                              const SchemeKey& /*key*/) const {
  return Status::NotSupported("scheme '" + name() +
                              "' has no refresh (incremental) path");
}

}  // namespace freqywm
