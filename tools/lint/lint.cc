#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lexer.h"

namespace cksafe_lint {
namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}
bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string Trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

// ---------------------------------------------------------------------------
// Scopes: which paths each rule applies to.

// L2: subsystems whose outputs must be byte-identical across runs and
// toolchains (seeded generation, the numeric kernel, the on-disk format).
constexpr std::string_view kDeterminismScopes[] = {
    "src/foundry/", "include/cksafe/foundry/", "src/core/",
    "include/cksafe/core/", "src/persist/", "include/cksafe/persist/",
    "src/util/page_io.cc", "include/cksafe/util/page_io.h",
};

// L2 addendum: foundry *generator* TUs are integer-only (PR 6: identical
// seeds must yield byte-identical tables on any compiler; no FP anywhere
// in the generation path). The scenario runner is exempt — it consumes
// analyzer output (disclosure probabilities), it does not generate.
constexpr std::string_view kIntegerOnlyFiles[] = {
    "src/foundry/table_foundry.cc", "src/foundry/hierarchy_foundry.cc",
    "src/foundry/delta_foundry.cc", "src/foundry/fingerprint.cc",
    "include/cksafe/foundry/table_foundry.h",
    "include/cksafe/foundry/hierarchy_foundry.h",
    "include/cksafe/foundry/delta_foundry.h",
    "include/cksafe/foundry/fingerprint.h",
};

// L4: the only code allowed to touch the raw file primitives. Everything
// else goes through DurableStore, whose manifest record is the commit
// point (DESIGN.md §12).
constexpr std::string_view kPersistScopes[] = {
    "src/persist/", "include/cksafe/persist/", "src/util/page_io.cc",
    "include/cksafe/util/page_io.h",
};

bool InScopes(std::string_view path, const std::string_view* scopes,
              size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (StartsWith(path, scopes[i])) return true;
  }
  return false;
}

// Identifiers banned outright in L2 scopes: ambient-entropy and
// wall-clock sources, and the std distribution/engine types whose
// sequences are not pinned across standard library implementations.
const std::set<std::string, std::less<>> kBannedIdentifiers = {
    "rand",          "srand",          "rand_r",        "drand48",
    "lrand48",       "mrand48",        "random",        "random_device",
    "mt19937",       "mt19937_64",     "minstd_rand",   "minstd_rand0",
    "ranlux24",      "ranlux48",       "knuth_b",       "default_random_engine",
    "random_shuffle", "gettimeofday",  "system_clock",  "steady_clock",
    "high_resolution_clock",
};

// Banned only in call position (common variable names otherwise).
const std::set<std::string, std::less<>> kBannedCalls = {"time", "clock"};

// ---------------------------------------------------------------------------

struct FileTokens {
  const SourceFile* file;
  std::vector<Token> tokens;
};

// Given `toks[close]` == ")" or "]", returns the index of its matching
// opener, or -1 when unbalanced.
int OpenOf(const std::vector<Token>& toks, int close) {
  const std::string_view open = toks[close].text == ")" ? "(" : "[";
  int depth = 0;
  for (int j = close; j >= 0; --j) {
    if (toks[j].kind != TokenKind::kPunct) continue;
    if (toks[j].text == toks[close].text) ++depth;
    if (toks[j].text == open && --depth == 0) return j;
  }
  return -1;
}

// Walks backwards from the callee identifier at `callee` over a postfix
// chain (obj.member->Method, ns::Class::Fn, Make().Then) and returns the
// index of the chain's first token.
int ChainStart(const std::vector<Token>& toks, int callee) {
  int start = callee;
  for (;;) {
    const int p = PrevSignificant(toks, start);
    if (p < 0) return start;
    if (toks[p].IsPunct(".") || toks[p].IsPunct("->") ||
        toks[p].IsPunct("::")) {
      const int q = PrevSignificant(toks, p);
      if (q < 0) return start;
      if (toks[q].kind == TokenKind::kIdentifier) {
        start = q;
        continue;
      }
      if (toks[q].IsPunct(")") || toks[q].IsPunct("]")) {
        // Back over a balanced (...) or [...] group, then over the
        // identifier that precedes it if any (a call or index).
        const int j = OpenOf(toks, q);
        if (j < 0) return start;
        const int before = PrevSignificant(toks, j);
        if (before >= 0 && toks[before].kind == TokenKind::kIdentifier) {
          start = before;
        } else {
          start = j;
        }
        continue;
      }
      return start;
    }
    return start;
  }
}

// Returns the `?` that the `:` at `colon` closes, or -1 when the colon
// ends a case or goto label.
int QuestionOf(const std::vector<Token>& toks, int colon) {
  int nested = 0;
  for (int j = PrevSignificant(toks, colon); j >= 0;
       j = PrevSignificant(toks, j)) {
    const Token& t = toks[j];
    if (t.IsPunct(")") || t.IsPunct("]")) {
      j = OpenOf(toks, j);
      if (j < 0) return -1;
      continue;
    }
    if (t.IsPunct(";") || t.IsPunct("{") || t.IsPunct("}") ||
        t.IsPunct("(") || t.IsPunct("[")) {
      return -1;
    }
    if (t.IsPunct(":")) ++nested;
    if (t.IsPunct("?") && nested-- == 0) return j;
  }
  return -1;
}

// Returns the index of the token before the conditional expression whose
// `?` is at `question` (-1 at the start of the file). The condition
// extends back to the first token a logical-or-expression cannot hold: an
// assignment, a separator, an opening bracket, `return`/`throw`, or the
// `)` closing a control clause.
int ConditionalStart(const std::vector<Token>& toks, int question) {
  for (int j = question;;) {
    const int p = PrevSignificant(toks, j);
    if (p < 0) return p;
    const Token& t = toks[p];
    if (t.IsPunct(")") || t.IsPunct("]")) {
      j = OpenOf(toks, p);
      if (j < 0) return p;
      const int before = PrevSignificant(toks, j);
      if (t.IsPunct(")") && before >= 0 &&
          (toks[before].IsIdent("if") || toks[before].IsIdent("while") ||
           toks[before].IsIdent("for") || toks[before].IsIdent("switch"))) {
        return p;
      }
      continue;
    }
    if (t.IsPunct("=")) {
      // The lexer splits `==`, `!=`, `<=` and `>=` into two punctuators.
      const int q = PrevSignificant(toks, p);
      if (q < 0 || !(toks[q].IsPunct("=") || toks[q].IsPunct("!") ||
                     toks[q].IsPunct("<") || toks[q].IsPunct(">"))) {
        return p;
      }
      j = q;
      continue;
    }
    if (t.IsPunct(";") || t.IsPunct("{") || t.IsPunct("}") ||
        t.IsPunct(":") || t.IsPunct("?") || t.IsPunct(",") ||
        t.IsPunct("(") || t.IsPunct("[") || t.IsIdent("return") ||
        t.IsIdent("co_return") || t.IsIdent("throw") || t.IsIdent("else") ||
        t.IsIdent("do")) {
      return p;
    }
    j = p;
  }
}

// ---------------------------------------------------------------------------
// L1: build the Status/StatusOr function-name registry from the headers.

// Declaration-context keywords: an identifier preceded by one of these is
// NOT a `Type name(...)` declaration (it is a call or an expression).
const std::set<std::string, std::less<>> kNonTypeKeywords = {
    "return",   "new",      "delete",  "throw",    "co_return", "case",
    "goto",     "else",     "do",      "sizeof",   "alignof",   "if",
    "while",    "for",      "switch",  "operator", "using",     "typedef",
    "template", "typename", "class",   "struct",   "enum",      "namespace",
    "public",   "private",  "protected",
};

void BuildStatusRegistry(const std::vector<FileTokens>& lexed,
                         std::set<std::string>* registry) {
  std::set<std::string> status_returning;
  // Names also declared with a NON-Status return type anywhere in the
  // headers. A name-based registry cannot tell `QueryRouter::Submit`
  // (StatusOr) from `ThreadPool::Submit` (void) at a call site, so
  // ambiguous names are pruned: for those, the compiler's
  // [[nodiscard]] + -Werror=unused-result is the (type-accurate)
  // enforcement, and the lint covers the unambiguous rest plus the
  // `(void)`-cast escape hatch.
  std::set<std::string> otherwise_returning;

  for (const auto& ft : lexed) {
    if (!StartsWith(ft.file->path, "include/") ||
        !EndsWith(ft.file->path, ".h")) {
      continue;
    }
    const auto& toks = ft.tokens;
    for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      const bool is_status = toks[i].text == "Status";
      const bool is_status_or = toks[i].text == "StatusOr";
      if (is_status || is_status_or) {
        // Candidate return type. Not one if preceded by class/struct (a
        // definition) or a member access.
        const int prev = PrevSignificant(toks, i);
        if (prev >= 0 &&
            (toks[prev].IsIdent("class") || toks[prev].IsIdent("struct") ||
             toks[prev].IsPunct(".") || toks[prev].IsPunct("->"))) {
          continue;
        }
        int j = NextSignificant(toks, i);
        if (is_status_or) {
          // Skip the template argument list.
          if (j < 0 || !toks[j].IsPunct("<")) continue;
          int depth = 0;
          while (j < static_cast<int>(toks.size())) {
            if (toks[j].IsPunct("<")) ++depth;
            if (toks[j].IsPunct(">")) {
              if (--depth == 0) break;
            }
            ++j;
          }
          j = NextSignificant(toks, j);
        }
        if (j < 0 || toks[j].kind != TokenKind::kIdentifier) continue;
        const int call = NextSignificant(toks, j);
        if (call < 0 || !toks[call].IsPunct("(")) continue;
        status_returning.insert(toks[j].text);
        continue;
      }
      // `Type name(` with Type != Status/StatusOr: record `name` as
      // ambiguous when Type is a plain identifier (void, size_t, ...),
      // a closing template `>`, or a pointer/reference declarator.
      const int open = NextSignificant(toks, i);
      if (open < 0 || !toks[open].IsPunct("(")) continue;
      const int prev = PrevSignificant(toks, i);
      if (prev < 0) continue;
      const Token& p = toks[prev];
      const bool type_like =
          (p.kind == TokenKind::kIdentifier &&
           kNonTypeKeywords.find(p.text) == kNonTypeKeywords.end() &&
           p.text != "Status" && p.text != "StatusOr") ||
          p.IsPunct(">") || p.IsPunct("*") || p.IsPunct("&");
      if (!type_like) continue;
      // `StatusOr<T> Name(` reaches here with prev == ">": walk back to
      // the template head to see whether it is StatusOr.
      if (p.IsPunct(">")) {
        int depth = 0;
        int j = prev;
        for (; j >= 0; --j) {
          if (toks[j].kind == TokenKind::kComment) continue;
          if (toks[j].IsPunct(">")) ++depth;
          if (toks[j].IsPunct("<")) {
            if (--depth == 0) break;
          }
        }
        const int head = j >= 0 ? PrevSignificant(toks, j) : -1;
        if (head >= 0 && toks[head].IsIdent("StatusOr")) continue;
      }
      otherwise_returning.insert(toks[i].text);
    }
  }
  for (const auto& name : status_returning) {
    if (otherwise_returning.find(name) == otherwise_returning.end()) {
      registry->insert(name);
    }
  }
}

void RunUncheckedStatus(const std::vector<FileTokens>& lexed,
                        const std::set<std::string>& registry,
                        std::vector<Finding>* findings) {
  for (const auto& ft : lexed) {
    const auto& toks = ft.tokens;
    for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
      if (toks[i].kind != TokenKind::kIdentifier) continue;
      if (registry.find(toks[i].text) == registry.end()) continue;
      const int open = NextSignificant(toks, i);
      if (open < 0 || !toks[open].IsPunct("(")) continue;
      const int close = MatchParen(toks, open);
      if (close < 0) continue;
      const int after = NextSignificant(toks, close);
      // Only a call whose full statement is `expr;` can be a discard.
      if (after < 0 || !toks[after].IsPunct(";")) continue;

      const int start = ChainStart(toks, i);
      int pre = PrevSignificant(toks, start);
      // A call ending a conditional is discarded only when the whole
      // conditional is: judge the token before it instead.
      while (pre >= 0 && toks[pre].IsPunct(":")) {
        const int question = QuestionOf(toks, pre);
        if (question < 0) break;  // a case or goto label
        pre = ConditionalStart(toks, question);
      }
      bool discarded = false;
      bool voided = false;
      if (pre < 0) {
        discarded = true;
      } else {
        const Token& t = toks[pre];
        if (t.IsPunct(";") || t.IsPunct("{") || t.IsPunct("}") ||
            t.IsPunct(":") || t.IsIdent("else") || t.IsIdent("do")) {
          discarded = true;
        } else if (t.IsPunct(")")) {
          // Either a control clause `if (...) Call();` or a C-style void
          // cast `(void)Call();` — both discard the Status.
          discarded = true;
          const int cast_inner = PrevSignificant(toks, pre);
          if (cast_inner >= 0 && toks[cast_inner].IsIdent("void")) {
            voided = true;
          }
        }
      }
      if (!discarded) continue;
      // A declaration (`Status Open(...);` in a header) is not a call:
      // the token before the chain is the return type itself.
      if (pre >= 0 && toks[pre].kind == TokenKind::kIdentifier &&
          (toks[pre].text == "Status" || toks[pre].text == "StatusOr")) {
        continue;
      }
      Finding f;
      f.rule = "L1";
      f.file = ft.file->path;
      f.line = toks[i].line;
      f.token = toks[i].text;
      f.message =
          voided
              ? "`(void)`-cast discard of a Status-returning call to '" +
                    toks[i].text +
                    "' — assert or propagate instead (allowlist with a "
                    "justification if the drop is genuinely intended)"
              : "result of Status-returning call to '" + toks[i].text +
                    "' is discarded — assert or propagate it";
      findings->push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// L2: determinism ban.

void RunDeterminismBan(const std::vector<FileTokens>& lexed,
                       std::vector<Finding>* findings) {
  for (const auto& ft : lexed) {
    const std::string_view path = ft.file->path;
    if (!InScopes(path, kDeterminismScopes, std::size(kDeterminismScopes))) {
      continue;
    }
    const bool integer_only =
        std::find(std::begin(kIntegerOnlyFiles), std::end(kIntegerOnlyFiles),
                  path) != std::end(kIntegerOnlyFiles);
    const auto& toks = ft.tokens;
    for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
      const Token& t = toks[i];
      if (t.kind == TokenKind::kIdentifier) {
        const bool banned =
            kBannedIdentifiers.count(t.text) > 0 ||
            EndsWith(t.text, "_distribution");
        const int next = NextSignificant(toks, i);
        const bool banned_call = kBannedCalls.count(t.text) > 0 &&
                                 next >= 0 && toks[next].IsPunct("(");
        if (banned || banned_call) {
          findings->push_back(
              {"L2", ft.file->path, t.line, t.text,
               "nondeterminism source '" + t.text +
                   "' in a byte-identical subsystem (use util/random.h "
                   "seeded generators / caller-provided seeds)"});
          continue;
        }
        if (integer_only && (t.text == "float" || t.text == "double")) {
          findings->push_back(
              {"L2", ft.file->path, t.line, t.text,
               "floating-point type '" + t.text +
                   "' in an integer-only foundry generator TU (PR 6 "
                   "contract: identical seeds => byte-identical bytes "
                   "on every compiler)"});
        }
      } else if (integer_only && t.kind == TokenKind::kNumber) {
        const bool is_hex = StartsWith(t.text, "0x") || StartsWith(t.text, "0X");
        const bool fp =
            !is_hex && (t.text.find('.') != std::string::npos ||
                        t.text.find('e') != std::string::npos ||
                        t.text.find('E') != std::string::npos);
        if (fp) {
          findings->push_back({"L2", ft.file->path, t.line, t.text,
                               "floating-point literal '" + t.text +
                                   "' in an integer-only foundry generator "
                                   "TU"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L3: layer tower.

// `include/cksafe/X/...` or `src/X/...` => layer X; otherwise "".
std::string LayerOfPath(std::string_view path) {
  std::string_view rest;
  if (StartsWith(path, "include/cksafe/")) {
    rest = path.substr(strlen("include/cksafe/"));
  } else if (StartsWith(path, "src/")) {
    rest = path.substr(strlen("src/"));
  } else {
    return "";
  }
  const size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return "";  // e.g. a root header
  return std::string(rest.substr(0, slash));
}

void RunLayerTower(const LayerConfig& layers,
                   const std::vector<SourceFile>& files,
                   std::vector<Finding>* findings) {
  // Config rot check: every layer directory present in the tree must be
  // declared, so a new subsystem cannot silently join with no position
  // in the tower.
  std::set<std::string> seen_layers;
  for (const auto& f : files) {
    const std::string layer = LayerOfPath(f.path);
    if (!layer.empty()) seen_layers.insert(layer);
  }
  for (const auto& layer : seen_layers) {
    if (layers.Find(layer) == nullptr) {
      findings->push_back(
          {"L3", "", 0, layer,
           "layer '" + layer +
               "' exists in the tree but is not declared in layers.txt — "
               "add it at its rank in the tower"});
    }
  }

  for (const auto& f : files) {
    const std::string from_name = LayerOfPath(f.path);
    if (from_name.empty()) continue;  // examples/tests/bench/tools: exempt
    const LayerConfig::Layer* from = layers.Find(from_name);
    if (from == nullptr) continue;  // already reported above

    std::istringstream lines(f.content);
    std::string line;
    int line_no = 0;
    while (std::getline(lines, line)) {
      ++line_no;
      const std::string trimmed = Trim(line);
      constexpr std::string_view kPrefix = "#include \"cksafe/";
      if (!StartsWith(trimmed, kPrefix)) continue;
      const std::string_view rest =
          std::string_view(trimmed).substr(kPrefix.size());
      const size_t slash = rest.find('/');
      if (slash == std::string_view::npos) continue;  // root header
      const std::string to_name(rest.substr(0, slash));
      const LayerConfig::Layer* to = layers.Find(to_name);
      if (to == nullptr) {
        findings->push_back({"L3", f.path, line_no, to_name,
                             "include of undeclared layer '" + to_name +
                                 "' (declare it in layers.txt)"});
        continue;
      }
      if (to_name == from_name) continue;
      const bool ok = to->rank < from->rank ||
                      (to->rank == from->rank && to->group == from->group);
      if (!ok) {
        findings->push_back(
            {"L3", f.path, line_no, to_name,
             "layer '" + from_name + "' (rank " +
                 std::to_string(from->rank) + ") may not include layer '" +
                 to_name + "' (rank " + std::to_string(to->rank) +
                 "): edges must point down the tower, or stay inside a "
                 "declared cohesive group"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L4: persist write-path ordering.

void RunPersistOrdering(const std::vector<FileTokens>& lexed,
                        std::vector<Finding>* findings) {
  for (const auto& ft : lexed) {
    const std::string_view path = ft.file->path;
    if (InScopes(path, kPersistScopes, std::size(kPersistScopes))) continue;
    if (StartsWith(path, "tools/lint/")) continue;  // the linter itself
    const auto& toks = ft.tokens;
    for (int i = 0; i < static_cast<int>(toks.size()); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "AppendFile" || t.text == "RandomReadFile") {
        findings->push_back(
            {"L4", ft.file->path, t.line, t.text,
             "direct use of '" + t.text +
                 "' outside persist/ + util/page_io — the manifest owns "
                 "the commit point; go through DurableStore"});
        continue;
      }
      if (t.text == "Sync") {
        const int prev = PrevSignificant(toks, i);
        const int next = NextSignificant(toks, i);
        const bool member_call =
            prev >= 0 && next >= 0 &&
            (toks[prev].IsPunct(".") || toks[prev].IsPunct("->")) &&
            toks[next].IsPunct("(");
        if (member_call) {
          findings->push_back(
              {"L4", ft.file->path, t.line, t.text,
               "direct '.Sync()' outside persist/ + util/page_io — "
               "durability points are sequenced by the manifest commit "
               "protocol"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L5: NOLINT discipline.

void RunNolintDiscipline(const std::vector<FileTokens>& lexed, int max_nolint,
                         std::vector<Finding>* findings, int* nolint_count) {
  *nolint_count = 0;
  for (const auto& ft : lexed) {
    // The linter's own sources discuss NOLINT syntax in comments; they are
    // not suppressions and do not count against the cap.
    if (StartsWith(ft.file->path, "tools/lint/")) continue;
    for (const auto& t : ft.tokens) {
      if (t.kind != TokenKind::kComment) continue;
      size_t pos = 0;
      while ((pos = t.text.find("NOLINT", pos)) != std::string::npos) {
        ++*nolint_count;
        // Accepted shapes: NOLINT(check): reason / NOLINTNEXTLINE(check):
        // reason — the check list and the reason are both mandatory.
        size_t p = pos + strlen("NOLINT");
        if (t.text.compare(p, strlen("NEXTLINE"), "NEXTLINE") == 0) {
          p += strlen("NEXTLINE");
        }
        bool ok = false;
        if (p < t.text.size() && t.text[p] == '(') {
          const size_t close = t.text.find(')', p + 1);
          if (close != std::string::npos && close > p + 1) {
            size_t r = close + 1;
            if (r < t.text.size() && t.text[r] == ':') {
              ok = !Trim(t.text.substr(r + 1)).empty();
            }
          }
        }
        if (!ok) {
          findings->push_back(
              {"L5", ft.file->path, t.line, "NOLINT",
               "NOLINT without a named check and trailing reason — write "
               "`NOLINT(check-name): why this is safe`"});
        }
        pos = p;
      }
    }
  }
  if (*nolint_count > max_nolint) {
    findings->push_back(
        {"L5", "", 0, "NOLINT",
         "tree-wide NOLINT count " + std::to_string(*nolint_count) +
             " exceeds the cap of " + std::to_string(max_nolint) +
             " — fix the findings instead of suppressing them, or raise "
             "the cap in a reviewed change"});
  }
}

}  // namespace

std::string Finding::ToString() const {
  std::string out;
  if (!file.empty()) {
    out = file + ":" + std::to_string(line) + ": ";
  }
  out += "[" + rule + "] " + message;
  return out;
}

const LayerConfig::Layer* LayerConfig::Find(std::string_view name) const {
  for (const auto& l : layers) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

bool ParseLayerConfig(std::string_view text, LayerConfig* out,
                      std::string* error) {
  out->layers.clear();
  int rank = 0;
  int next_group = 0;
  std::istringstream lines{std::string(text)};
  std::string raw;
  while (std::getline(lines, raw)) {
    const size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = Trim(raw);
    if (line.empty()) continue;
    for (const std::string& group : SplitWhitespace(line)) {
      const int group_id = next_group++;
      std::string member;
      std::istringstream members(group);
      while (std::getline(members, member, '+')) {
        if (member.empty()) {
          *error = "layers.txt: empty layer name in group '" + group + "'";
          return false;
        }
        if (out->Find(member) != nullptr) {
          *error = "layers.txt: layer '" + member + "' declared twice";
          return false;
        }
        out->layers.push_back({member, rank, group_id});
      }
    }
    ++rank;
  }
  if (out->layers.empty()) {
    *error = "layers.txt: no layers declared";
    return false;
  }
  return true;
}

bool ParseAllowlist(std::string_view text, std::vector<AllowlistEntry>* out,
                    std::string* error) {
  out->clear();
  std::istringstream lines{std::string(text)};
  std::string raw;
  int line_no = 0;
  while (std::getline(lines, raw)) {
    ++line_no;
    const std::string line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const size_t sep = line.find(" -- ");
    if (sep == std::string::npos || Trim(line.substr(sep + 4)).empty()) {
      *error = "allowlist.txt:" + std::to_string(line_no) +
               ": entry without a ` -- justification` (every exception "
               "carries its reason)";
      return false;
    }
    const std::vector<std::string> fields =
        SplitWhitespace(line.substr(0, sep));
    if (fields.size() < 2 || fields.size() > 3) {
      *error = "allowlist.txt:" + std::to_string(line_no) +
               ": expected `RULE path [token] -- justification`";
      return false;
    }
    AllowlistEntry e;
    e.rule = fields[0];
    e.path = fields[1];
    if (fields.size() == 3) e.token = fields[2];
    e.justification = Trim(line.substr(sep + 4));
    e.line = line_no;
    out->push_back(std::move(e));
  }
  return true;
}

LintReport RunLint(const LintOptions& options,
                   const std::vector<SourceFile>& files) {
  LintReport report;
  report.files_scanned = static_cast<int>(files.size());

  std::vector<FileTokens> lexed;
  lexed.reserve(files.size());
  for (const auto& f : files) {
    lexed.push_back({&f, Lex(f.content)});
  }

  std::set<std::string> registry;
  BuildStatusRegistry(lexed, &registry);
  report.status_registry.assign(registry.begin(), registry.end());

  std::vector<Finding> findings;
  RunUncheckedStatus(lexed, registry, &findings);
  RunDeterminismBan(lexed, &findings);
  RunLayerTower(options.layers, files, &findings);
  RunPersistOrdering(lexed, &findings);
  RunNolintDiscipline(lexed, options.max_nolint, &findings,
                      &report.nolint_count);

  // Apply the allowlist; stale entries (matching nothing) are findings in
  // their own right, so exceptions disappear when their reason does.
  std::vector<bool> used(options.allowlist.size(), false);
  for (auto& f : findings) {
    for (size_t i = 0; i < options.allowlist.size(); ++i) {
      const AllowlistEntry& e = options.allowlist[i];
      if (e.rule == f.rule && e.path == f.file &&
          (e.token.empty() || e.token == f.token)) {
        used[i] = true;
        f.rule.clear();  // mark suppressed
        break;
      }
    }
  }
  for (auto& f : findings) {
    if (!f.rule.empty()) report.findings.push_back(std::move(f));
  }
  for (size_t i = 0; i < options.allowlist.size(); ++i) {
    if (!used[i]) {
      const AllowlistEntry& e = options.allowlist[i];
      report.findings.push_back(
          {"config", "", 0, e.token,
           "stale allowlist entry (allowlist.txt:" + std::to_string(e.line) +
               ": " + e.rule + " " + e.path +
               ") matches no finding — delete it"});
    }
  }
  return report;
}

bool CollectTree(const std::string& root, std::vector<SourceFile>* out,
                 std::string* error) {
  namespace fs = std::filesystem;
  out->clear();
  const char* kDirs[] = {"include", "src", "examples", "bench", "tests",
                         "tools"};
  for (const char* dir : kDirs) {
    const fs::path base = fs::path(root) / dir;
    std::error_code ec;
    if (!fs::exists(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base, ec), end;
         it != end && !ec; it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      std::ifstream in(it->path(), std::ios::binary);
      if (!in) {
        *error = "cannot read " + it->path().string();
        return false;
      }
      std::ostringstream content;
      content << in.rdbuf();
      const std::string rel =
          fs::relative(it->path(), root, ec).generic_string();
      out->push_back({rel, content.str()});
    }
    if (ec) {
      *error = "walking " + base.string() + ": " + ec.message();
      return false;
    }
  }
  std::sort(out->begin(), out->end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return true;
}

}  // namespace cksafe_lint
