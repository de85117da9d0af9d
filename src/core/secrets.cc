#include "core/secrets.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/hex.h"
#include "common/string_util.h"

namespace freqywm {

namespace {
constexpr char kMagic[] = "freqywm-secrets v1";
}  // namespace

std::string WatermarkSecrets::Serialize() const {
  std::ostringstream out;
  out << kMagic << '\n';
  out << "z " << z << '\n';
  out << "r " << r.ToHex() << '\n';
  out << "pairs " << pairs.size() << '\n';
  for (const auto& p : pairs) {
    out << HexEncode(reinterpret_cast<const uint8_t*>(p.token_i.data()),
                     p.token_i.size())
        << ' '
        << HexEncode(reinterpret_cast<const uint8_t*>(p.token_j.data()),
                     p.token_j.size())
        << '\n';
  }
  return out.str();
}

Result<WatermarkSecrets> WatermarkSecrets::Deserialize(
    const std::string& text) {
  std::istringstream in(text);
  std::string line;

  if (!std::getline(in, line) || StripWhitespace(line) != kMagic) {
    return Status::Corruption("bad magic in secrets file");
  }

  WatermarkSecrets out;
  if (!std::getline(in, line)) return Status::Corruption("missing z line");
  {
    std::vector<std::string> parts = Split(std::string(StripWhitespace(line)), ' ');
    Result<uint64_t> z = ParseU64(parts.size() == 2 ? parts[1] : "");
    if (parts.size() != 2 || parts[0] != "z" || !z.ok()) {
      return Status::Corruption("malformed z line");
    }
    out.z = z.value();
    if (out.z < 2) return Status::Corruption("z must be >= 2");
  }
  if (!std::getline(in, line)) return Status::Corruption("missing r line");
  {
    std::vector<std::string> parts = Split(std::string(StripWhitespace(line)), ' ');
    if (parts.size() != 2 || parts[0] != "r") {
      return Status::Corruption("malformed r line");
    }
    FREQYWM_ASSIGN_OR_RETURN(out.r, WatermarkSecret::FromHex(parts[1]));
  }
  if (!std::getline(in, line)) return Status::Corruption("missing pairs line");
  uint64_t n_pairs = 0;
  {
    std::vector<std::string> parts = Split(std::string(StripWhitespace(line)), ' ');
    Result<uint64_t> n = ParseU64(parts.size() == 2 ? parts[1] : "");
    if (parts.size() != 2 || parts[0] != "pairs" || !n.ok()) {
      return Status::Corruption("malformed pairs line");
    }
    n_pairs = n.value();
  }
  // No reserve: the count is untrusted until that many lines are read.
  for (uint64_t i = 0; i < n_pairs; ++i) {
    if (!std::getline(in, line)) {
      return Status::Corruption("truncated pair list");
    }
    std::vector<std::string> parts = Split(std::string(StripWhitespace(line)), ' ');
    if (parts.size() != 2) return Status::Corruption("malformed pair line");
    FREQYWM_ASSIGN_OR_RETURN(std::vector<uint8_t> ti, HexDecode(parts[0]));
    FREQYWM_ASSIGN_OR_RETURN(std::vector<uint8_t> tj, HexDecode(parts[1]));
    out.pairs.push_back(SecretPair{Token(ti.begin(), ti.end()),
                                   Token(tj.begin(), tj.end())});
  }
  // A self-pair passes every modulus (f_i - f_i = 0) and a repeat counts
  // one residue twice. (a, b) and (b, a) have distinct moduli.
  std::vector<std::pair<std::string_view, std::string_view>> sorted;
  for (const SecretPair& p : out.pairs) {
    if (p.token_i == p.token_j) return Status::Corruption("self-pair in key");
    sorted.emplace_back(p.token_i, p.token_j);
  }
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::Corruption("repeated pair in key");
  }
  return out;
}

Status WatermarkSecrets::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  out << Serialize();
  out.close();  // flush, so a full disk is reported here
  if (!out) return Status::Internal("write failed for '" + path + "'");
  return Status::OK();
}

Result<WatermarkSecrets> WatermarkSecrets::LoadFromFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return Deserialize(buf.str());
}

}  // namespace freqywm
