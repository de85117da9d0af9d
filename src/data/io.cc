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

Result<TableDataset> ReadSimpleCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("empty CSV file '" + path + "'");
  }
  TableDataset table(Split(StripWhitespace(line), ','));
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty()) continue;
    Status s = table.AppendRow(Split(stripped, ','));
    if (!s.ok()) {
      return Status::Corruption("row " + std::to_string(line_no) + " of '" +
                                path + "': " + s.message());
    }
  }
  return table;
}

Status WriteSimpleCsv(const TableDataset& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  out << Join(table.column_names(), ',') << '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    out << Join(table.row(r), ',') << '\n';
  }
  out.close();  // flush, so a full disk is reported here
  if (!out) return Status::Internal("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace freqywm
