#ifndef FREQYWM_DATA_IO_H_
#define FREQYWM_DATA_IO_H_

#include <string>

#include "common/result.h"
#include "data/dataset.h"

namespace freqywm {

/// Reads a single-dimensional token dataset: one token per line.
/// Blank lines are skipped; surrounding whitespace is stripped.
Result<Dataset> ReadTokenFile(const std::string& path);

/// Writes one token per line.
Status WriteTokenFile(const Dataset& dataset, const std::string& path);

}  // namespace freqywm

#endif  // FREQYWM_DATA_IO_H_
