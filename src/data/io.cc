#include "data/io.h"

#include <fstream>

#include "common/string_util.h"

namespace freqywm {

Result<Dataset> ReadTokenFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::vector<Token> tokens;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    tokens.emplace_back(stripped);
  }
  return Dataset(std::move(tokens));
}

Status WriteTokenFile(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  const TokenDictionary& dictionary = dataset.dictionary();
  for (uint32_t id : dataset.ids()) out << dictionary.token(id) << '\n';
  out.close();  // flush, so a full disk is reported here
  if (!out) return Status::Internal("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace freqywm
