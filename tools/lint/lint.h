// cksafe_lint: project-invariant static analysis.
//
// The rules enforce contracts that hold the cksafe tower together but
// that no unit test can reliably catch (docs/STATIC_ANALYSIS.md is the
// user-facing catalog):
//
//   L1 unchecked-status   a call returning Status/StatusOr whose result
//                         is discarded. The compiler enforces this where
//                         it can ([[nodiscard]] + -Werror=unused-result);
//                         the rule additionally flags `(void)`-cast
//                         discards and keeps non-default build configs
//                         honest. The set of Status-returning functions
//                         is *derived* by scanning the real headers, not
//                         hand-maintained.
//   L2 determinism-ban    nondeterminism sources (rand/time/clock/
//                         std::*_distribution/...) in the subsystems
//                         whose outputs must be byte-identical across
//                         runs and compilers: foundry/, core/, persist/,
//                         util/page_io. Foundry *generator* TUs are
//                         additionally floating-point-free (PR 6's
//                         integer-only contract).
//   L3 layer-tower        every `#include "cksafe/..."` edge must respect
//                         the layer DAG declared in tools/lint/layers.txt
//                         (the docs/ARCHITECTURE.md tower). Same-rank
//                         edges are only legal inside an explicitly
//                         declared cohesive group (`persist+serve`).
//   L4 persist-ordering   direct AppendFile/RandomReadFile/.Sync() use
//                         outside persist/ + util/page_io. The manifest
//                         owns the commit point; ad-hoc file IO elsewhere
//                         can reorder writes around it.
//   L5 nolint-discipline  every NOLINT must name its check and carry a
//                         trailing `: reason`, and the tree-wide NOLINT
//                         count is capped so suppressions stay the
//                         exception.
//
// Exceptions live in tools/lint/allowlist.txt; every entry carries a
// written justification and unused entries are themselves findings, so
// the allowlist cannot rot.

#ifndef CKSAFE_TOOLS_LINT_LINT_H_
#define CKSAFE_TOOLS_LINT_LINT_H_

#include <string>
#include <string_view>
#include <vector>

namespace cksafe_lint {

/// One source file presented to the linter. `path` is repo-root-relative
/// with forward slashes (rules dispatch on it); tests feed synthetic
/// paths with embedded snippet contents.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One rule violation (or configuration error, rule "config").
struct Finding {
  std::string rule;     // "L1".."L5" or "config"
  std::string file;     // root-relative path ("" for config findings)
  int line = 0;         // 1-based; 0 when not tied to a line
  std::string token;    // the offending identifier, for allowlist matching
  std::string message;

  std::string ToString() const;
};

/// The layer DAG from layers.txt: ranks bottom-up; each rank holds one or
/// more groups; members of one group may include each other, members of
/// different groups (same or different rank) may only include strictly
/// lower ranks.
struct LayerConfig {
  struct Layer {
    std::string name;
    int rank = 0;
    int group = 0;  // globally unique group id
  };
  std::vector<Layer> layers;

  const Layer* Find(std::string_view name) const;
};

/// One allowlist exception: rule + path (+ optional token), with a
/// mandatory justification.
struct AllowlistEntry {
  std::string rule;
  std::string path;
  std::string token;  // empty = any token in that file
  std::string justification;
  int line = 0;  // line in allowlist.txt, for stale-entry reporting
};

struct LintOptions {
  LayerConfig layers;
  std::vector<AllowlistEntry> allowlist;
  // Hard cap on tree-wide NOLINT suppressions (L5). Raising it is a
  // reviewed change to this default or an explicit --max-nolint.
  int max_nolint = 8;
};

struct LintReport {
  std::vector<Finding> findings;
  int files_scanned = 0;
  int nolint_count = 0;
  // Status/StatusOr-returning function names derived from the headers
  // (exposed for --dump-registry and the self-scan test's sanity checks).
  std::vector<std::string> status_registry;
};

/// Parses layers.txt. Format, one rank per line, bottom-up:
///   util
///   hierarchy knowledge        # same rank, independent groups
///   persist+serve              # one cohesive group, mutual includes OK
/// `#` starts a comment. Returns false and sets `error` on malformed
/// input (duplicate layer, empty group, ...).
bool ParseLayerConfig(std::string_view text, LayerConfig* out,
                      std::string* error);

/// Parses allowlist.txt. Format, one entry per line:
///   L4 tests/persist_test.cc Sync -- codec tests write torn bytes ...
///   L2 src/foundry/x.cc -- <justification>
/// The ` -- justification` part is mandatory and non-empty.
bool ParseAllowlist(std::string_view text, std::vector<AllowlistEntry>* out,
                    std::string* error);

/// Runs every rule over `files` (paths root-relative). Pure function of
/// its inputs: the same tree and config always produce the same report.
LintReport RunLint(const LintOptions& options,
                   const std::vector<SourceFile>& files);

/// Collects the lintable tree (include/ src/ examples/ bench/ tests/
/// tools/, extensions .h/.cc) under `root`. Returns false on IO errors.
bool CollectTree(const std::string& root, std::vector<SourceFile>* out,
                 std::string* error);

}  // namespace cksafe_lint

#endif  // CKSAFE_TOOLS_LINT_LINT_H_
