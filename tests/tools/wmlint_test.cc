// Golden tests for the wmlint invariant analyzer (DESIGN.md §12): every
// check gets one fixture tree it must flag and one it must pass, plus
// config-policy fixtures (stale entries, missing rationales). The
// fixtures live under tools/wmlint/testdata/ — plain source trees the
// analyzer scans, never compiled.

#include "wmlint/wmlint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "wmlint/config.h"
#include "wmlint/lexer.h"

namespace wmlint {
namespace {

/// Runs one check over one fixture tree (config in <fixture>/config).
RunResult RunFixture(const std::string& fixture, const std::string& check) {
  RunOptions options;
  options.root = std::string(WMLINT_TESTDATA_DIR) + "/" + fixture;
  options.config_dir = options.root + "/config";
  options.checks = {check};
  return Run(options);
}

std::vector<std::string> Keys(const RunResult& result,
                              const std::string& check) {
  std::vector<std::string> keys;
  for (const Finding& f : result.findings) {
    if (f.check == check) keys.push_back(f.key);
  }
  return keys;
}

size_t CountCheck(const RunResult& result, const std::string& check) {
  size_t n = 0;
  for (const Finding& f : result.findings) n += (f.check == check);
  return n;
}

// ------------------------------------------------------------ layers

TEST(WmlintLayersTest, FlagsUndeclaredEdge) {
  RunResult r = RunFixture("layers_bad", "layers");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].check, "layers");
  EXPECT_EQ(r.findings[0].file, "src/core/uses_api.h");
  EXPECT_NE(r.findings[0].message.find("api/scheme.h"), std::string::npos);
}

TEST(WmlintLayersTest, AllowedEdgeIsCleanAndNotStale) {
  RunResult r = RunFixture("layers_clean", "layers");
  EXPECT_TRUE(r.findings.empty()) << RenderText(r);
}

TEST(WmlintLayersTest, MissingLayersFileIsAConfigFinding) {
  // The bad_config fixture has no layers.txt.
  RunResult r = RunFixture("bad_config", "layers");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].check, "config");
  EXPECT_NE(r.findings[0].message.find("layers.txt missing"),
            std::string::npos);
}

// --------------------------------------------------------- guarded_by

TEST(WmlintGuardedByTest, FlagsNakedMemberOfMutexOwningClass) {
  RunResult r = RunFixture("guarded_by_bad", "guarded_by");
  std::vector<std::string> keys = Keys(r, "guarded_by");
  ASSERT_EQ(keys.size(), 1u) << RenderText(r);
  EXPECT_EQ(keys[0], "src/exec/widget.h:Widget::count_");
}

TEST(WmlintGuardedByTest, AnnotationsAtomicsAndAllowlistSilence) {
  RunResult r = RunFixture("guarded_by_clean", "guarded_by");
  EXPECT_TRUE(r.findings.empty()) << RenderText(r);
}

// -------------------------------------------------------- determinism

TEST(WmlintDeterminismTest, FlagsRandHashOrderAndPointerKeys) {
  RunResult r = RunFixture("determinism_bad", "determinism");
  std::vector<std::string> keys = Keys(r, "determinism");
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), 3u) << RenderText(r);
  EXPECT_EQ(keys[0], "src/core/chaos.cc:counts");
  EXPECT_EQ(keys[1], "src/core/chaos.cc:pointer_key");
  EXPECT_EQ(keys[2], "src/core/chaos.cc:rand");
}

TEST(WmlintDeterminismTest, AllowlistedLoopIsCleanAndClaimed) {
  RunResult r = RunFixture("determinism_clean", "determinism");
  EXPECT_TRUE(r.findings.empty()) << RenderText(r);
}

// ------------------------------------------------------------- oracle

TEST(WmlintOracleTest, FlagsMissingSiblingAndUntestedOracle) {
  RunResult r = RunFixture("oracle_bad", "oracle");
  std::vector<std::string> keys = Keys(r, "oracle");
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), 3u) << RenderText(r);
  EXPECT_EQ(keys[0], "Compute");  // no sibling at all
  EXPECT_EQ(keys[1], "Mix");      // only a later parameter is defaulted
  EXPECT_EQ(keys[2], "Shard");    // sibling exists but untested
}

TEST(WmlintOracleTest, ReferenceSiblingAndTestedSerialOverloadPass) {
  RunResult r = RunFixture("oracle_clean", "oracle");
  EXPECT_TRUE(r.findings.empty()) << RenderText(r);
}

// ------------------------------------------------------ identity_gate

TEST(WmlintIdentityGateTest, FlagsJsonEmittingBenchWithoutGate) {
  RunResult r = RunFixture("identity_gate_bad", "identity_gate");
  std::vector<std::string> keys = Keys(r, "identity_gate");
  ASSERT_EQ(keys.size(), 1u) << RenderText(r);
  EXPECT_EQ(keys[0], "bench/bench_fixture.cc");
}

TEST(WmlintIdentityGateTest, GateUsePasses) {
  RunResult r = RunFixture("identity_gate_clean", "identity_gate");
  EXPECT_TRUE(r.findings.empty()) << RenderText(r);
}

// ------------------------------------------------------- number_parse

TEST(WmlintNumberParseTest, FlagsHandRolledParsesOutsideStringUtil) {
  RunResult r = RunFixture("number_parse_bad", "number_parse");
  std::vector<std::string> keys = Keys(r, "number_parse");
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(keys.size(), 3u) << RenderText(r);
  EXPECT_EQ(keys[0], "src/api/key_reader.cc:atoi");
  EXPECT_EQ(keys[1], "src/api/key_reader.cc:stoull");
  EXPECT_EQ(keys[2], "src/api/key_reader.cc:strtod");
}

TEST(WmlintNumberParseTest, StringUtilAndMemberCallsPass) {
  RunResult r = RunFixture("number_parse_clean", "number_parse");
  EXPECT_TRUE(r.findings.empty()) << RenderText(r);
}

// ----------------------------------------------------- config policy

TEST(WmlintConfigTest, StaleEntriesAndMissingRationalesAreFindings) {
  RunResult r = RunFixture("bad_config", "determinism");
  // ghost: stale; unjustified: stale + missing rationale.
  EXPECT_EQ(CountCheck(r, "config"), 3u) << RenderText(r);
  EXPECT_EQ(CountCheck(r, "determinism"), 0u);
}

TEST(WmlintConfigTest, DuplicateAllowlistEntryIsAnError) {
  std::vector<Finding> findings;
  Allowlist a = Allowlist::Parse(
      "dup.txt", "# why\nsrc/a.cc:x\n# why again\nsrc/a.cc:x\n", &findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("duplicate"), std::string::npos);
}

// -------------------------------------------------------- lexer/report

TEST(WmlintLexerTest, StringsCommentsAndRawStringsDoNotLeakTokens) {
  LexedFile f = LexSource("x.cc",
                          "// rand()\n"
                          "/* time() */\n"
                          "const char* s = \"rand()\";\n"
                          "const char* r = R\"(time())\";\n"
                          "int live = 1;\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "time");
  }
  ASSERT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens.back().text, ";");
}

TEST(WmlintLexerTest, IncludeTargetsAreCaptured) {
  LexedFile f = LexSource("x.cc",
                          "#include \"core/detect.h\"\n"
                          "#include <vector>\n");
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].path, "core/detect.h");
  EXPECT_FALSE(f.includes[0].angled);
  EXPECT_TRUE(f.includes[1].angled);
}

TEST(WmlintReportTest, TextAndJsonRenderVerdicts) {
  RunResult clean = RunFixture("layers_clean", "layers");
  EXPECT_NE(RenderText(clean).find("wmlint: OK"), std::string::npos);
  EXPECT_NE(RenderJson(clean).find("\"status\": \"ok\""),
            std::string::npos);

  RunResult bad = RunFixture("layers_bad", "layers");
  EXPECT_NE(RenderText(bad).find("wmlint: FAIL"), std::string::npos);
  std::string json = RenderJson(bad);
  EXPECT_NE(json.find("\"status\": \"fail\""), std::string::npos);
  EXPECT_NE(json.find("\"check\": \"layers\""), std::string::npos);
  EXPECT_NE(json.find("src/core/uses_api.h"), std::string::npos);
}

}  // namespace
}  // namespace wmlint
