#include "core/bucketize.h"

#include "common/string_util.h"

namespace freqywm {

Token BucketToken(double value, const BucketizeSpec& spec) {
  double offset = (value - spec.origin) / spec.width;
  long long bucket = offset < 0 ? 0 : static_cast<long long>(offset);
  return spec.token_prefix + std::to_string(bucket);
}

Result<Dataset> BucketizeNumericStrings(
    const std::vector<std::string>& values, const BucketizeSpec& spec) {
  if (spec.width <= 0) {
    return Status::InvalidArgument("bucket width must be positive");
  }
  std::vector<Token> tokens;
  tokens.reserve(values.size());
  for (const auto& v : values) {
    Result<double> parsed = ParseFiniteDouble(v);
    if (!parsed.ok()) {
      return Status::InvalidArgument("non-numeric value: '" + v + "'");
    }
    tokens.push_back(BucketToken(parsed.value(), spec));
  }
  return Dataset(std::move(tokens));
}

Dataset BucketizeNumeric(const std::vector<double>& values,
                         const BucketizeSpec& spec) {
  std::vector<Token> tokens;
  tokens.reserve(values.size());
  for (double v : values) tokens.push_back(BucketToken(v, spec));
  return Dataset(std::move(tokens));
}

Result<std::pair<double, double>> BucketRange(const Token& token,
                                              const BucketizeSpec& spec) {
  if (token.rfind(spec.token_prefix, 0) != 0) {
    return Status::InvalidArgument("token does not carry bucket prefix");
  }
  Result<uint64_t> bucket =
      ParseU64(std::string_view(token).substr(spec.token_prefix.size()));
  if (!bucket.ok()) {
    return Status::InvalidArgument("malformed bucket token: '" + token + "'");
  }
  double lo = spec.origin + static_cast<double>(bucket.value()) * spec.width;
  return std::make_pair(lo, lo + spec.width);
}

}  // namespace freqywm
