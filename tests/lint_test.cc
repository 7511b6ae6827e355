// Per-rule tests for cksafe_lint (tools/lint) on embedded snippets: each
// rule gets deliberately-seeded violations that must be detected and
// near-miss negatives that must not. The complementary lint_self_scan
// ctest entry runs the real binary over the real tree and asserts zero
// findings, so the two directions together pin both rule sensitivity and
// tree cleanliness.

#include "lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lexer.h"

namespace cksafe_lint {
namespace {

LintOptions DefaultOptions() {
  LintOptions options;
  std::string error;
  // A miniature tower mirroring the real file's shape: a base layer, two
  // independent peers, a cohesive group, and a top layer.
  const char* kLayers =
      "util\n"
      "hierarchy knowledge\n"
      "core+simd\n"
      "serve\n";
  EXPECT_TRUE(ParseLayerConfig(kLayers, &options.layers, &error)) << error;
  return options;
}

std::vector<std::string> RuleFindings(const LintReport& report,
                                      const std::string& rule) {
  std::vector<std::string> out;
  for (const auto& f : report.findings) {
    if (f.rule == rule) out.push_back(f.ToString());
  }
  return out;
}

// The header every L1 test shares: declares the Status surface the
// registry is derived from, including one deliberately ambiguous name.
const char kStatusHeader[] = R"cc(
  namespace cksafe {
  class Status {};
  template <typename T> class StatusOr {};
  Status Frob(int x);
  StatusOr<int> Grab();
  Status Overloaded();      // ambiguous: void overload below
  void Overloaded(int x);   // => pruned from the registry
  }  // namespace cksafe
)cc";

// --- Lexer ------------------------------------------------------------------

TEST(LexerTest, StringsAndCommentsAreOpaque) {
  const auto toks = Lex(
      "int a = 1; // rand in a comment\n"
      "const char* s = \"rand(\\\"x\\\")\";\n"
      "auto r = R\"(time( clock( )\" ;\n");
  for (const auto& t : toks) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "time");
      EXPECT_NE(t.text, "clock");
    }
  }
}

TEST(LexerTest, LineNumbersAndMultiCharOperators) {
  const auto toks = Lex("a\n/* two\nlines */ b->c::d");
  ASSERT_GE(toks.size(), 6u);
  EXPECT_TRUE(toks[0].IsIdent("a"));
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].kind, TokenKind::kComment);
  EXPECT_TRUE(toks[2].IsIdent("b"));
  EXPECT_EQ(toks[2].line, 3);
  EXPECT_TRUE(toks[3].IsPunct("->"));
  EXPECT_TRUE(toks[5].IsPunct("::"));
}

TEST(LexerTest, NumbersIncludingExponentsAreSingleTokens) {
  const auto toks = Lex("x = 1'000e+3 + 0x1F + .5;");
  std::vector<std::string> numbers;
  for (const auto& t : toks) {
    if (t.kind == TokenKind::kNumber) numbers.push_back(t.text);
  }
  EXPECT_EQ(numbers, (std::vector<std::string>{"1'000e+3", "0x1F", ".5"}));
}

TEST(LexerTest, MatchParenBalancesNesting) {
  const auto toks = Lex("f(g(x), h(y))");
  // tokens: f ( g ( x ) , h ( y ) )
  EXPECT_EQ(MatchParen(toks, 1), 11);
  EXPECT_EQ(MatchParen(toks, 3), 5);
}

// --- L1: unchecked-status ---------------------------------------------------

LintReport LintWithStatusHeader(const std::string& body) {
  return RunLint(DefaultOptions(),
                 {{"include/cksafe/util/status.h", kStatusHeader},
                  {"src/util/user.cc", body}});
}

TEST(L1Test, BareDiscardedCallIsFlagged) {
  const auto report = LintWithStatusHeader("void f() { Frob(1); }");
  ASSERT_EQ(RuleFindings(report, "L1").size(), 1u);
  EXPECT_NE(RuleFindings(report, "L1")[0].find("Frob"), std::string::npos);
}

TEST(L1Test, MemberChainDiscardIsFlagged) {
  const auto report =
      LintWithStatusHeader("void f(W& w) { w.file->Frob(2); }");
  EXPECT_EQ(RuleFindings(report, "L1").size(), 1u);
}

TEST(L1Test, ControlClauseDiscardIsFlagged) {
  const auto report =
      LintWithStatusHeader("void f(bool b) { if (b) Frob(1); }");
  EXPECT_EQ(RuleFindings(report, "L1").size(), 1u);
}

TEST(L1Test, VoidCastDiscardIsFlagged) {
  const auto report = LintWithStatusHeader("void f() { (void)Frob(1); }");
  const auto findings = RuleFindings(report, "L1");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("(void)"), std::string::npos);
}

TEST(L1Test, UsedResultsAreNotFlagged) {
  const auto report = LintWithStatusHeader(R"cc(
    Status g() { return Frob(1); }
    Status h() {
      Status s = Frob(2);
      CKSAFE_RETURN_IF_ERROR(Frob(3));
      if (Frob(4).ok()) { }
      auto v = Grab();
      return s;
    }
    Status i(bool b) { return b ? Frob(5) : Frob(6); }
    Status j(bool b) {
      Status s = b ? Frob(7) : Frob(8);
      return s;
    }
  )cc");
  EXPECT_TRUE(RuleFindings(report, "L1").empty());
}

TEST(L1Test, DiscardedConditionalAndLabeledCallsAreFlagged) {
  // A conditional that is itself the statement discards both branches;
  // a call after a case or goto label starts a statement of its own.
  const auto report = LintWithStatusHeader(R"cc(
    void f(bool b, int x) {
      b ? Frob(1) : Frob(2);
      switch (x) {
        case 1: Frob(3); break;
        default: Frob(4);
      }
      done: Frob(5);
    }
  )cc");
  EXPECT_EQ(RuleFindings(report, "L1").size(), 4u);
}

TEST(L1Test, HeaderDeclarationIsNotACall) {
  // The declaration itself (`Status Frob(int);`) must not be mistaken
  // for a discarded call — nor a definition followed by a brace.
  const auto report = RunLint(
      DefaultOptions(), {{"include/cksafe/util/status.h", kStatusHeader}});
  EXPECT_TRUE(RuleFindings(report, "L1").empty());
}

TEST(L1Test, AmbiguousNamesArePrunedFromRegistry) {
  // `Overloaded` has both Status and void declarations: a name-based
  // registry cannot judge its call sites, so the compiler's
  // [[nodiscard]] owns them and the lint stays silent.
  const auto report = LintWithStatusHeader("void f() { Overloaded(); }");
  EXPECT_TRUE(RuleFindings(report, "L1").empty());
  EXPECT_EQ(std::count(report.status_registry.begin(),
                       report.status_registry.end(), "Overloaded"),
            0);
  EXPECT_EQ(std::count(report.status_registry.begin(),
                       report.status_registry.end(), "Frob"),
            1);
}

// --- L2: determinism-ban ----------------------------------------------------

TEST(L2Test, EntropySourcesInScopedDirsAreFlagged) {
  const auto report = RunLint(DefaultOptions(), {{"src/core/kernel.cc", R"cc(
    #include <random>
    int f() {
      std::mt19937 rng(std::random_device{}());
      std::uniform_int_distribution<int> dist(0, 9);
      return dist(rng) + time(nullptr) + clock();
    }
  )cc"}});
  // mt19937, random_device, uniform_int_distribution (x2: declaration and
  // the dist variable is fine — only the type name matches the suffix),
  // time(, clock(.
  EXPECT_GE(RuleFindings(report, "L2").size(), 5u);
}

TEST(L2Test, TimeAsVariableNameIsNotFlagged) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/persist/manifest.cc",
        "int f(int time) { int clock = time; return clock; }"}});
  EXPECT_TRUE(RuleFindings(report, "L2").empty());
}

TEST(L2Test, OutOfScopeDirsAreExempt) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/serve/router.cc", "int f() { return rand(); }"},
       {"bench/some_bench.cc", "int g() { return clock(); }"}});
  EXPECT_TRUE(RuleFindings(report, "L2").empty());
}

TEST(L2Test, FloatingPointBannedOnlyInGeneratorTUs) {
  const auto fp_in_generator = RunLint(
      DefaultOptions(),
      {{"src/foundry/table_foundry.cc", "double Skew() { return 0.5; }"}});
  // Both the type and the literal are findings.
  EXPECT_EQ(RuleFindings(fp_in_generator, "L2").size(), 2u);

  const auto fp_in_runner = RunLint(
      DefaultOptions(),
      {{"src/foundry/scenario.cc", "double Verify() { return 0.5; }"}});
  EXPECT_TRUE(RuleFindings(fp_in_runner, "L2").empty());
}

TEST(L2Test, HexLiteralsAreNotFloatingPoint) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/foundry/fingerprint.cc",
        "unsigned long long kSeed = 0xcbf29ce484222325ULL;"}});
  EXPECT_TRUE(RuleFindings(report, "L2").empty());
}

// --- L3: layer tower --------------------------------------------------------

TEST(L3Test, DownTowerIncludeIsAllowed) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/serve/router.cc", "#include \"cksafe/util/status.h\"\n"}});
  EXPECT_TRUE(RuleFindings(report, "L3").empty());
}

TEST(L3Test, UpTowerIncludeIsFlagged) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/util/helper.cc", "#include \"cksafe/serve/engine.h\"\n"}});
  ASSERT_EQ(RuleFindings(report, "L3").size(), 1u);
  EXPECT_NE(RuleFindings(report, "L3")[0].find("down the tower"),
            std::string::npos);
}

TEST(L3Test, SameRankPeersMayNotIncludeEachOther) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/hierarchy/tree.cc", "#include \"cksafe/knowledge/f.h\"\n"}});
  EXPECT_EQ(RuleFindings(report, "L3").size(), 1u);
}

TEST(L3Test, CohesiveGroupMayIncludeBothWays) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/core/minimize.cc", "#include \"cksafe/simd/dispatch.h\"\n"},
       {"include/cksafe/simd/dispatch.h",
        "#include \"cksafe/core/logprob.h\"\n"}});
  EXPECT_TRUE(RuleFindings(report, "L3").empty());
}

TEST(L3Test, UndeclaredLayerOnDiskIsFlagged) {
  const auto report =
      RunLint(DefaultOptions(), {{"src/newthing/a.cc", "int x;\n"}});
  ASSERT_EQ(RuleFindings(report, "L3").size(), 1u);
  EXPECT_NE(RuleFindings(report, "L3")[0].find("newthing"),
            std::string::npos);
}

TEST(L3Test, IncludeOfUndeclaredLayerIsFlagged) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/serve/router.cc", "#include \"cksafe/mystery/x.h\"\n"}});
  EXPECT_EQ(RuleFindings(report, "L3").size(), 1u);
}

TEST(L3Test, TestsAndExamplesAreExemptFromTheTower) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"tests/serve_test.cc", "#include \"cksafe/serve/engine.h\"\n"
                               "#include \"cksafe/util/status.h\"\n"}});
  EXPECT_TRUE(RuleFindings(report, "L3").empty());
}

// --- L4: persist ordering ---------------------------------------------------

TEST(L4Test, RawFilePrimitivesOutsidePersistAreFlagged) {
  const auto report = RunLint(DefaultOptions(), {{"src/serve/engine.cc", R"cc(
    void f() {
      AppendFile file;
      file.Sync();
    }
  )cc"}});
  EXPECT_EQ(RuleFindings(report, "L4").size(), 2u);
}

TEST(L4Test, PersistAndPageIoOwnThePrimitives) {
  const char kBody[] = "void f(AppendFile& w) { w.Sync(); }";
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/persist/manifest.cc", kBody},
       {"include/cksafe/persist/segment.h", kBody},
       {"src/util/page_io.cc", kBody}});
  EXPECT_TRUE(RuleFindings(report, "L4").empty());
}

TEST(L4Test, FreeFunctionNamedSyncIsNotAMemberCall) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/serve/engine.cc", "void Sync(); void f() { Sync(); }"}});
  EXPECT_TRUE(RuleFindings(report, "L4").empty());
}

// --- L5: suppression discipline ---------------------------------------------

TEST(L5Test, BareNolintIsFlagged) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/util/a.cc", "int x; // NOLINT\n"},
       {"src/util/b.cc", "int y; // NOLINT(bugprone-foo)\n"}});
  EXPECT_EQ(RuleFindings(report, "L5").size(), 2u);
}

TEST(L5Test, ReasonedNolintIsCountedNotFlagged) {
  const auto report = RunLint(
      DefaultOptions(),
      {{"src/util/a.cc",
        "int x; // NOLINT(bugprone-foo): pinned by vendor ABI\n"}});
  EXPECT_TRUE(RuleFindings(report, "L5").empty());
  EXPECT_EQ(report.nolint_count, 1);
}

TEST(L5Test, TreeWideCapIsEnforced) {
  LintOptions options = DefaultOptions();
  options.max_nolint = 1;
  const auto report = RunLint(
      options,
      {{"src/util/a.cc",
        "int x; // NOLINTNEXTLINE(bugprone-foo): reason one\n"
        "int y; // NOLINT(bugprone-bar): reason two\n"}});
  ASSERT_EQ(RuleFindings(report, "L5").size(), 1u);
  EXPECT_NE(RuleFindings(report, "L5")[0].find("cap"), std::string::npos);
  EXPECT_EQ(report.nolint_count, 2);
}

// --- Allowlist and configs --------------------------------------------------

TEST(AllowlistTest, EntrySuppressesAndStaleEntryIsAFinding) {
  LintOptions options = DefaultOptions();
  std::string error;
  ASSERT_TRUE(ParseAllowlist(
      "L4 src/serve/engine.cc AppendFile -- fixture justification\n"
      "L2 src/core/gone.cc -- stale: the file was deleted\n",
      &options.allowlist, &error))
      << error;
  const auto report = RunLint(
      options, {{"src/serve/engine.cc", "AppendFile f;"}});
  EXPECT_TRUE(RuleFindings(report, "L4").empty());
  ASSERT_EQ(RuleFindings(report, "config").size(), 1u);
  EXPECT_NE(RuleFindings(report, "config")[0].find("stale"),
            std::string::npos);
}

TEST(AllowlistTest, JustificationIsMandatory) {
  std::vector<AllowlistEntry> entries;
  std::string error;
  EXPECT_FALSE(
      ParseAllowlist("L4 tests/persist_test.cc Sync\n", &entries, &error));
  EXPECT_NE(error.find("justification"), std::string::npos);
  EXPECT_FALSE(
      ParseAllowlist("L4 tests/persist_test.cc Sync -- \n", &entries,
                     &error));
}

TEST(LayerConfigTest, RejectsDuplicatesAndEmptyConfigs) {
  LayerConfig layers;
  std::string error;
  EXPECT_FALSE(ParseLayerConfig("util\nutil\n", &layers, &error));
  EXPECT_NE(error.find("twice"), std::string::npos);
  EXPECT_FALSE(ParseLayerConfig("# only comments\n", &layers, &error));
}

TEST(LayerConfigTest, RanksAndGroupsParse) {
  LayerConfig layers;
  std::string error;
  ASSERT_TRUE(ParseLayerConfig("util\na b\ncore+simd  # kernel\n", &layers,
                               &error))
      << error;
  ASSERT_EQ(layers.layers.size(), 5u);
  EXPECT_EQ(layers.Find("util")->rank, 0);
  EXPECT_EQ(layers.Find("a")->rank, 1);
  EXPECT_EQ(layers.Find("b")->rank, 1);
  EXPECT_NE(layers.Find("a")->group, layers.Find("b")->group);
  EXPECT_EQ(layers.Find("core")->group, layers.Find("simd")->group);
}

}  // namespace
}  // namespace cksafe_lint
