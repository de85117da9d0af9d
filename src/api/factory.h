#ifndef FREQYWM_API_FACTORY_H_
#define FREQYWM_API_FACTORY_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/scheme.h"
#include "common/result.h"

namespace freqywm {

/// A generic string key/value option bag: the runtime currency CLIs and
/// benches use to configure a scheme they select by name, without
/// compiling against its concrete options struct.
///
/// Values are parsed lazily by the typed getters, which fail with
/// `InvalidArgument` on malformed input; scheme builders additionally
/// reject unknown keys so typos surface instead of silently applying
/// defaults.
class OptionBag {
 public:
  OptionBag() = default;

  /// Parses "key=value,key=value" (the CLI `--opt` syntax). Whitespace
  /// around keys and values is stripped; empty segments are skipped.
  [[nodiscard]] static Result<OptionBag> FromString(std::string_view text);

  void Set(const std::string& key, const std::string& value);
  bool Has(const std::string& key) const;
  bool empty() const { return entries_.empty(); }
  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  /// Typed getters: return `fallback` when the key is absent and
  /// `InvalidArgument` when present but unparsable.
  [[nodiscard]] Result<std::string> GetString(const std::string& key,
                                              std::string fallback) const;
  [[nodiscard]] Result<double> GetDouble(const std::string& key,
                                         double fallback) const;
  [[nodiscard]] Result<uint64_t> GetU64(const std::string& key,
                                        uint64_t fallback) const;

  /// Fails with `InvalidArgument` naming the first key outside `allowed`.
  [[nodiscard]] Status ExpectOnly(
      std::initializer_list<std::string_view> allowed) const;

 private:
  std::map<std::string, std::string> entries_;
};

/// The string-keyed scheme factory: a fixed table of the three paper
/// schemes, "freqywm", "wm-obt" and "wm-rvs" (§V). The table is closed and
/// constant, so every call is lock-free; adding a scheme means adding one
/// row in `factory.cc`. Everything downstream (benches, CLI,
/// `FingerprintRegistry::TraceSuspects`, the conformance test) reaches
/// schemes through the factory and never names a concrete class.
class SchemeFactory {
 public:
  /// Instantiates a scheme by name. Fails with `NotFound` for unknown
  /// names and propagates builder failures (e.g. malformed options).
  [[nodiscard]] static Result<std::unique_ptr<WatermarkScheme>> Create(
      const std::string& name, const OptionBag& options = {});

  /// All scheme names, sorted.
  static std::vector<std::string> RegisteredNames();
};

/// One default-configured scheme instance per distinct tag, created
/// lazily through the factory. Detection parameters live entirely in each
/// `SchemeKey`, so default-configured objects suffice for any detect-side
/// work; unregistered tags map to nullptr. `BatchDetector::Session` uses
/// one to prepare its key column (which every `FingerprintRegistry` and
/// tenant trace goes through); benches and the key-parse fuzzer use it to
/// reach a key's scheme.
///
/// Not thread-safe: populate on one thread (`Get` each tag up front),
/// then share the const scheme pointers freely — `Prepare` is const and
/// stateless for every in-tree scheme.
class SchemeCache {
 public:
  /// The cached scheme for `name`, created on first use; nullptr when the
  /// name is not registered in the factory.
  const WatermarkScheme* Get(const std::string& name);

 private:
  std::map<std::string, std::unique_ptr<WatermarkScheme>> schemes_;
};

}  // namespace freqywm

#endif  // FREQYWM_API_FACTORY_H_
