// cksafe_cli — command-line front end for the whole library.
//
//   cksafe_cli analyze  [data flags] --node=... [--max_k --c --k]
//   cksafe_cli publish  [data flags] --c --k [--objective --out --out_qit --out_st]
//   cksafe_cli multi    [data flags] --policies=gold=0.5:4,free=0.8:1 [--objective]
//   cksafe_cli serve    [data flags] --replay=FILE [--policies --readers
//                       --stream_batches --queue --rounds --persist=DIR]
//   cksafe_cli fleet    [data flags] [--replay=FILE | --queries=N] [--shards
//                       --policies --readers --rounds --queue --migrations
//                       --persist=DIR]
//   cksafe_cli persist  --dir=DIR [--dump] [--verify]
//   cksafe_cli audit    [data flags] --node=... --knowledge=FILE [--approx]
//   cksafe_cli fig5     [--rows --seed --adult_csv --max_k]
//   cksafe_cli fig6     [--rows --seed --adult_csv]
//   cksafe_cli foundry  [--scenario=NAME | --rows --seed] [--out=PATH]
//   cksafe_cli scenario [--list | --scenario=NAME] [--scale=X]
//
// Data flags (analyze / publish / audit):
//   --adult              use the built-in synthetic Adult workload
//   --rows, --seed       synthetic Adult size / seed
//   --adult_csv=PATH     the genuine UCI adult.data
//   --input=PATH         any CSV (header row; schema inferred) with
//   --sensitive=NAME       the sensitive column and
//   --qi=A,B,C             comma-separated quasi-identifier columns
//                          (default ladders: doubling intervals /
//                           suppression; see MakeDefaultHierarchy)
//   --node=3,2,1,1       generalization levels (default: all zeros)
//
// Examples:
//   cksafe_cli analyze --adult --rows=10000 --node=3,2,1,1 --max_k=13
//   cksafe_cli publish --adult --c=0.6 --k=3 --out=/tmp/release.csv
//   cksafe_cli multi --adult --rows=2000 --policies=gold=0.5:4,std=0.7:2,free=0.85:1
//   cksafe_cli analyze --input=patients.csv --sensitive=Disease --qi=Age,Sex,Zip

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "cksafe/adult/adult.h"
#include "cksafe/anon/diversity.h"
#include "cksafe/anon/release.h"
#include "cksafe/core/disclosure.h"
#include "cksafe/data/csv_table.h"
#include "cksafe/exact/exact_engine.h"
#include "cksafe/exact/sampler.h"
#include "cksafe/experiments/figures.h"
#include "cksafe/foundry/fingerprint.h"
#include "cksafe/foundry/scenario.h"
#include "cksafe/foundry/workload_foundry.h"
#include "cksafe/knowledge/parser.h"
#include "cksafe/persist/durable_store.h"
#include "cksafe/search/publisher.h"
#include "cksafe/serve/query_router.h"
#include "cksafe/serve/reference_answer.h"
#include "cksafe/serve/serving_engine.h"
#include "cksafe/shard/fleet.h"
#include "cksafe/stream/multi_policy_publisher.h"
#include "cksafe/util/flags.h"
#include "cksafe/util/string_util.h"
#include "cksafe/util/text_table.h"

namespace cksafe {
namespace {

struct CliConfig {
  // Data source.
  bool adult = false;
  int64_t rows = 10000;
  int64_t seed = 20070419;
  std::string adult_csv;
  std::string input;
  std::string sensitive;
  std::string qi;  // comma-separated
  std::string node;
  // Analysis.
  int64_t max_k = 6;
  double c = 0.7;
  int64_t k = 3;
  std::string objective = "discernibility";
  // Publishing outputs.
  std::string out;
  std::string out_qit;
  std::string out_st;
  // Audit.
  std::string knowledge;
  bool approx = false;
  // Multi-tenant publishing: comma-separated [name=]c:k policies.
  std::string policies;
  // Serving (the `serve` replay driver).
  std::string replay;
  int64_t readers = 4;
  int64_t queue = 4096;
  int64_t stream_batches = 0;
  int64_t rounds = 1;
  // Fleet (the multi-process shard replay driver).
  int64_t shards = 2;
  int64_t queries = 20000;
  int64_t migrations = 0;
  // Foundry / scenario catalog.
  std::string scenario;
  double scale = 1.0;
  bool list = false;
  // Durable store (serve --persist=DIR writes through; the `persist`
  // command inspects/audits a store directory).
  std::string persist;
  std::string dir;
  int64_t pool_pages = 64;
  bool dump = false;
  bool verify = false;
};

struct LoadedData {
  Table table;
  std::vector<QuasiIdentifier> qis;
  size_t sensitive_column;
};

StatusOr<LoadedData> LoadData(const CliConfig& config) {
  if (config.adult || !config.adult_csv.empty()) {
    Table table = [&] {
      if (!config.adult_csv.empty()) {
        auto loaded = LoadAdultCsv(config.adult_csv);
        CKSAFE_CHECK(loaded.ok()) << loaded.status().ToString();
        return *std::move(loaded);
      }
      return GenerateSyntheticAdult(static_cast<size_t>(config.rows),
                                    static_cast<uint64_t>(config.seed));
    }();
    CKSAFE_ASSIGN_OR_RETURN(std::vector<QuasiIdentifier> qis,
                            AdultQuasiIdentifiers());
    return LoadedData{std::move(table), std::move(qis),
                      kAdultOccupationColumn};
  }
  if (config.input.empty()) {
    return Status::InvalidArgument(
        "need a data source: --adult, --adult_csv=... or --input=...");
  }
  CKSAFE_ASSIGN_OR_RETURN(Table table, TableFromCsv(config.input));
  if (config.sensitive.empty()) {
    return Status::InvalidArgument("--input requires --sensitive=<column>");
  }
  CKSAFE_ASSIGN_OR_RETURN(size_t sensitive_column,
                          table.schema().IndexOf(config.sensitive));
  if (config.qi.empty()) {
    return Status::InvalidArgument("--input requires --qi=<col,col,...>");
  }
  std::vector<QuasiIdentifier> qis;
  for (const std::string& raw : Split(config.qi, ',')) {
    const std::string name(Trim(raw));
    CKSAFE_ASSIGN_OR_RETURN(size_t column, table.schema().IndexOf(name));
    if (column == sensitive_column) {
      return Status::InvalidArgument(
          "sensitive column cannot be a quasi-identifier: " + name);
    }
    qis.push_back(QuasiIdentifier{
        column, MakeDefaultHierarchy(table.schema().attribute(column))});
  }
  return LoadedData{std::move(table), std::move(qis), sensitive_column};
}

// Flag-level validation of attacker powers: an absurd budget surfaces as a
// clean flag error *before* any data loads, instead of a CHECK-abort (or a
// multi-gigabyte DP allocation) deep in the sweep.
Status ValidateAttackerPower(const char* flag, int64_t value) {
  if (value < 0) {
    return Status::InvalidArgument(
        StrFormat("--%s must be non-negative, got %lld", flag,
                  static_cast<long long>(value)));
  }
  const Status budget =
      Minimize2Forward::ValidateBudget(static_cast<size_t>(value));
  if (!budget.ok()) {
    return Status::OutOfRange(
        StrFormat("--%s: %s", flag, budget.message().c_str()));
  }
  return Status::OK();
}

StatusOr<LatticeNode> ParseNode(const std::string& spec,
                                const std::vector<QuasiIdentifier>& qis) {
  LatticeNode node(qis.size(), 0);
  if (spec.empty()) return node;
  const std::vector<std::string> parts = Split(spec, ',');
  if (parts.size() != qis.size()) {
    return Status::InvalidArgument(
        StrFormat("--node has %zu levels but there are %zu quasi-identifiers",
                  parts.size(), qis.size()));
  }
  for (size_t i = 0; i < parts.size(); ++i) {
    CKSAFE_ASSIGN_OR_RETURN(int64_t level, ParseInt64(parts[i]));
    if (level < 0 ||
        static_cast<size_t>(level) >= qis[i].hierarchy->num_levels()) {
      return Status::OutOfRange(StrFormat(
          "level %lld out of range for quasi-identifier %zu (max %zu)",
          static_cast<long long>(level), i,
          qis[i].hierarchy->num_levels() - 1));
    }
    node[i] = static_cast<int>(level);
  }
  return node;
}

Status RunAnalyze(const CliConfig& config) {
  CKSAFE_RETURN_IF_ERROR(ValidateAttackerPower("k", config.k));
  CKSAFE_RETURN_IF_ERROR(ValidateAttackerPower("max_k", config.max_k));
  CKSAFE_ASSIGN_OR_RETURN(LoadedData data, LoadData(config));
  CKSAFE_ASSIGN_OR_RETURN(LatticeNode node, ParseNode(config.node, data.qis));
  CKSAFE_ASSIGN_OR_RETURN(
      Bucketization bucketization,
      BucketizeAtNode(data.table, data.qis, node, data.sensitive_column));

  std::printf("table: %zu rows; node: [", data.table.num_rows());
  for (size_t i = 0; i < node.size(); ++i) {
    std::printf("%s%d", i ? "," : "", node[i]);
  }
  std::printf("]; buckets: %zu; min bucket size: %u (k-anonymity)\n",
              bucketization.num_buckets(), bucketization.MinBucketSize());
  std::printf("min bucket entropy: %.4f nats (entropy l-diversity l=%.2f); "
              "distinct l-diversity: %u\n",
              bucketization.MinBucketEntropyNats(),
              MaxEntropyL(bucketization), MaxDistinctL(bucketization));

  DisclosureAnalyzer analyzer(bucketization);
  KnowledgePrinter printer(data.table, data.sensitive_column);
  TextTable curve;
  curve.SetHeader({"k", "implication", "negation"});
  const std::vector<double> imp =
      analyzer.ImplicationCurve(static_cast<size_t>(config.max_k));
  const std::vector<double> neg =
      analyzer.NegationCurve(static_cast<size_t>(config.max_k));
  for (size_t k = 0; k < imp.size(); ++k) {
    curve.AddRow({std::to_string(k), TextTable::FormatDouble(imp[k]),
                  TextTable::FormatDouble(neg[k])});
  }
  std::printf("\nworst-case disclosure vs. attacker power:\n%s",
              curve.Render().c_str());

  const WorstCaseDisclosure worst =
      analyzer.MaxDisclosureImplications(static_cast<size_t>(config.k));
  // The verdict compares in log space (exact even where the printed
  // disclosure saturates at 1.0 — see README "Numerics").
  std::printf("\n(c=%.2f, k=%lld)-safe: %s  (max disclosure %.4f)\n", config.c,
              static_cast<long long>(config.k),
              IsSafeLogRatio(worst.log_r_min, config.c) ? "YES" : "NO",
              worst.disclosure);
  if (!worst.antecedents.empty()) {
    std::printf("worst-case knowledge: %s\n",
                printer.FormulaToString(worst.ToFormula()).c_str());
  }

  // Per-bucket vulnerability at the configured k: which groups carry the
  // residual risk.
  const std::vector<double> per_bucket =
      analyzer.PerBucketDisclosure(static_cast<size_t>(config.k));
  std::vector<size_t> order(per_bucket.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return per_bucket[a] > per_bucket[b];
  });
  TextTable vulnerable;
  vulnerable.SetHeader({"bucket", "quasi-identifiers", "n", "worst-case"});
  for (size_t i = 0; i < order.size() && i < 10; ++i) {
    const Bucket& bucket = bucketization.bucket(order[i]);
    vulnerable.AddRow({std::to_string(order[i]), bucket.qi_label,
                       std::to_string(bucket.size()),
                       TextTable::FormatDouble(per_bucket[order[i]])});
  }
  std::printf("\nmost vulnerable buckets at k=%lld:\n%s",
              static_cast<long long>(config.k), vulnerable.Render().c_str());
  return Status::OK();
}

StatusOr<UtilityObjective> ParseObjective(const std::string& name) {
  if (name == "discernibility") return UtilityObjective::kDiscernibility;
  if (name == "avg_class_size") return UtilityObjective::kAvgClassSize;
  if (name == "height") return UtilityObjective::kHeight;
  if (name == "loss") return UtilityObjective::kLoss;
  return Status::InvalidArgument("unknown --objective " + name);
}

Status RunPublish(const CliConfig& config) {
  CKSAFE_RETURN_IF_ERROR(ValidateAttackerPower("k", config.k));
  CKSAFE_ASSIGN_OR_RETURN(LoadedData data, LoadData(config));

  PublisherOptions options;
  options.c = config.c;
  options.k = static_cast<size_t>(config.k);
  options.seed = static_cast<uint64_t>(config.seed);
  CKSAFE_ASSIGN_OR_RETURN(options.objective, ParseObjective(config.objective));

  Publisher publisher(options);
  CKSAFE_ASSIGN_OR_RETURN(
      PublishedRelease release,
      publisher.Publish(data.table, data.qis, data.sensitive_column));
  std::printf("%s", Publisher::Summary(release, data.table,
                                       data.sensitive_column)
                        .c_str());

  if (!config.out.empty()) {
    CKSAFE_ASSIGN_OR_RETURN(
        GeneralizedRelease generalized,
        BuildGeneralizedRelease(data.table, data.qis, release.node,
                                data.sensitive_column, options.seed));
    CKSAFE_RETURN_IF_ERROR(generalized.WriteCsv(config.out));
    std::printf("wrote generalized release: %s (%zu rows)\n",
                config.out.c_str(), generalized.rows.size());
  }
  if (!config.out_qit.empty() && !config.out_st.empty()) {
    CKSAFE_ASSIGN_OR_RETURN(
        AnatomyRelease anatomy,
        BuildAnatomyRelease(data.table, data.qis, release.bucketization,
                            data.sensitive_column));
    CKSAFE_RETURN_IF_ERROR(anatomy.WriteCsv(config.out_qit, config.out_st));
    std::printf("wrote Anatomy release: %s + %s\n", config.out_qit.c_str(),
                config.out_st.c_str());
  }
  return Status::OK();
}

// One parsed [name=]c:k tenant policy.
struct ParsedPolicy {
  std::string name;
  double c = 0.7;
  size_t k = 3;
};

// Parses the --policies flag ([name=]c:k, comma-separated), validating
// every attacker power through the budget gate.
StatusOr<std::vector<ParsedPolicy>> ParsePolicies(const std::string& flag) {
  std::vector<ParsedPolicy> policies;
  for (const std::string& raw : Split(flag, ',')) {
    std::string_view spec = Trim(raw);
    std::string name = "tenant" + std::to_string(policies.size());
    if (const size_t eq = spec.find('='); eq != std::string_view::npos) {
      name = std::string(Trim(spec.substr(0, eq)));
      spec = Trim(spec.substr(eq + 1));
    }
    const size_t colon = spec.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("policy must be [name=]c:k, got '" +
                                     std::string(raw) + "'");
    }
    CKSAFE_ASSIGN_OR_RETURN(double c,
                            ParseDouble(std::string(spec.substr(0, colon))));
    CKSAFE_ASSIGN_OR_RETURN(int64_t k,
                            ParseInt64(std::string(spec.substr(colon + 1))));
    if (c <= 0.0) {
      return Status::OutOfRange("policy needs c > 0: " + std::string(raw));
    }
    if (Status power = ValidateAttackerPower("policies", k); !power.ok()) {
      // Minimize2Forward::kMaxAnalysisBudget is the user-facing
      // atom-budget ceiling; reject here as a flag error instead of
      // aborting (or OOMing on the O(k^3) memo) deep in the sweep.
      return power;
    }
    policies.push_back(ParsedPolicy{std::move(name), c, static_cast<size_t>(k)});
  }
  return policies;
}

// Serves every tenant policy from ONE multi-policy lattice sweep: each
// node's disclosure profile is computed once and classified against all
// (c_i, k_i), so adding a tenant costs classification, not a search.
Status RunMulti(const CliConfig& config) {
  CKSAFE_ASSIGN_OR_RETURN(LoadedData data, LoadData(config));
  if (config.policies.empty()) {
    return Status::InvalidArgument(
        "multi requires --policies=[name=]c:k,[name=]c:k,...");
  }

  PublisherOptions base;
  base.seed = static_cast<uint64_t>(config.seed);
  CKSAFE_ASSIGN_OR_RETURN(base.objective, ParseObjective(config.objective));

  MultiPolicyPublisher publisher(std::move(data.table), data.qis,
                                 data.sensitive_column, base);
  CKSAFE_ASSIGN_OR_RETURN(std::vector<ParsedPolicy> policies,
                          ParsePolicies(config.policies));
  for (ParsedPolicy& policy : policies) {
    publisher.AddTenant(std::move(policy.name), policy.c, policy.k);
  }

  CKSAFE_ASSIGN_OR_RETURN(std::vector<TenantRelease> releases,
                          publisher.PublishAll());
  TextTable out;
  out.SetHeader({"tenant", "c", "k", "node", "buckets", "worst-case",
                 "utility(" + config.objective + ")"});
  for (const TenantRelease& tenant : releases) {
    std::string node = "-";
    std::string buckets = "-";
    std::string worst = "-";
    std::string utility = tenant.release.ok()
                              ? TextTable::FormatDouble(UtilityScore(
                                    tenant.release->utility, base.objective))
                              : tenant.release.status().ToString();
    if (tenant.release.ok()) {
      node = "[";
      for (size_t i = 0; i < tenant.release->node.size(); ++i) {
        node += StrFormat("%s%d", i ? "," : "", tenant.release->node[i]);
      }
      node += "]";
      buckets = std::to_string(tenant.release->bucketization.num_buckets());
      worst = TextTable::FormatDouble(tenant.release->worst_case.disclosure);
    }
    out.AddRow({tenant.tenant, TextTable::FormatDouble(tenant.policy.c),
                std::to_string(tenant.policy.k), node, buckets, worst,
                utility});
  }
  std::printf("%zu tenants served from one sweep over %zu rows:\n%s",
              releases.size(), publisher.table().num_rows(),
              out.Render().c_str());
  const MultiPolicySearchStats& stats = publisher.last_search_stats();
  std::printf("shared sweep: %llu profiles answered %llu per-tenant "
              "verdicts (%llu served without their own evaluation)\n",
              static_cast<unsigned long long>(stats.profiles_computed),
              static_cast<unsigned long long>(stats.verdicts),
              static_cast<unsigned long long>(stats.shared_verdicts()));
  return Status::OK();
}

// --- serve: the replay driver over the serve/ subsystem --------------------

// One replayed query plus everything recorded about its serving.
struct ReplayRecord {
  Query query;
  StatusOr<QueryAnswer> answer = Status::FailedPrecondition("not served");
  int64_t latency_ns = 0;  ///< recorded by `serve` only
};

// Parses a replay file: one `tenant,kind,c,k,bucket` query per line, where
// kind is safe|disclosure|profile|bucket. Blank lines and '#' comments are
// skipped.
StatusOr<std::vector<Query>> LoadReplayQueries(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read " + path);
  std::vector<Query> queries;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const std::vector<std::string> fields = Split(std::string(trimmed), ',');
    if (fields.size() != 5) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: want tenant,kind,c,k,bucket (5 fields), got %zu",
                    path.c_str(), line_no, fields.size()));
    }
    Query query;
    query.tenant = std::string(Trim(fields[0]));
    const std::string kind(Trim(fields[1]));
    if (kind == "safe") {
      query.kind = QueryKind::kIsCkSafe;
    } else if (kind == "disclosure") {
      query.kind = QueryKind::kDisclosure;
    } else if (kind == "profile") {
      query.kind = QueryKind::kProfileAtK;
    } else if (kind == "bucket") {
      query.kind = QueryKind::kPerBucket;
    } else {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: unknown kind '%s'", path.c_str(), line_no,
                    kind.c_str()));
    }
    CKSAFE_ASSIGN_OR_RETURN(query.c, ParseDouble(std::string(Trim(fields[2]))));
    CKSAFE_ASSIGN_OR_RETURN(int64_t k, ParseInt64(std::string(Trim(fields[3]))));
    CKSAFE_RETURN_IF_ERROR(ValidateAttackerPower("replay k", k));
    query.k = static_cast<size_t>(k);
    CKSAFE_ASSIGN_OR_RETURN(int64_t bucket,
                            ParseInt64(std::string(Trim(fields[4]))));
    if (bucket < 0) {
      return Status::OutOfRange(
          StrFormat("%s:%zu: bucket must be >= 0", path.c_str(), line_no));
    }
    query.bucket = static_cast<size_t>(bucket);
    queries.push_back(std::move(query));
  }
  if (queries.empty()) {
    return Status::InvalidArgument(path + " holds no queries");
  }
  return queries;
}

// Extracts rows [begin, end) of `table` as AddBatch-ready cell vectors.
std::vector<std::vector<int32_t>> RowCells(const Table& table, size_t begin,
                                           size_t end) {
  std::vector<std::vector<int32_t>> rows;
  rows.reserve(end - begin);
  for (size_t row = begin; row < end; ++row) {
    std::vector<int32_t> cells(table.num_columns());
    for (size_t col = 0; col < table.num_columns(); ++col) {
      cells[col] = table.at(static_cast<PersonId>(row), col);
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

// Verification: every OK answer must be bit-identical to a fresh
// synchronous analyzer over the snapshot it names in `registry`.
// `tenant_source` names where the queries' tenants came from, for the hint
// printed when nothing could be verified.
Status VerifyReplay(const std::vector<std::vector<ReplayRecord>>& per_reader,
                    const SnapshotRegistry& registry,
                    const char* tenant_source) {
  std::vector<ServedAnswer> served;
  for (const auto& records : per_reader) {
    for (const ReplayRecord& record : records) {
      if (record.answer.ok()) served.push_back({record.query, *record.answer});
    }
  }
  CKSAFE_RETURN_IF_ERROR(VerifyServedAnswers(served, registry));
  if (served.empty()) {
    // Don't print a vacuous success (the integration test pattern-matches
    // the verified line): a replay where nothing could be verified is
    // almost always a tenant-name mismatch between --policies and the
    // queries.
    std::printf("nothing to verify: no query was answered successfully "
                "(do the %s tenants match --policies?)\n",
                tenant_source);
    return Status::OK();
  }
  std::printf("all %zu verified answers bit-identical to a fresh "
              "synchronous analyzer\n",
              served.size());
  return Status::OK();
}

// Replays a query file against the serving layer: publishes every tenant
// policy through one MultiPolicyPublisher, spreads the queries over
// --readers threads calling the batching QueryRouter, optionally streams
// additional row batches through the publisher (each re-publish atomically
// swaps new snapshots under the live readers), then verifies every served
// answer bit-identically against a fresh synchronous DisclosureAnalyzer
// over the snapshot the answer names.
Status RunServe(const CliConfig& config) {
  if (config.replay.empty()) {
    return Status::InvalidArgument("serve requires --replay=FILE");
  }
  if (config.readers < 1) {
    return Status::InvalidArgument("--readers must be >= 1");
  }
  if (config.rounds < 1) {
    return Status::InvalidArgument("--rounds must be >= 1");
  }
  if (config.queue < 1) {
    return Status::InvalidArgument("--queue must be >= 1");
  }
  if (config.stream_batches < 0) {
    return Status::InvalidArgument("--stream_batches must be >= 0");
  }
  CKSAFE_ASSIGN_OR_RETURN(std::vector<Query> replay,
                          LoadReplayQueries(config.replay));
  CKSAFE_ASSIGN_OR_RETURN(LoadedData data, LoadData(config));

  std::vector<ParsedPolicy> policies;
  if (config.policies.empty()) {
    CKSAFE_RETURN_IF_ERROR(ValidateAttackerPower("k", config.k));
    policies.push_back(
        ParsedPolicy{"default", config.c, static_cast<size_t>(config.k)});
  } else {
    CKSAFE_ASSIGN_OR_RETURN(policies, ParsePolicies(config.policies));
  }

  PublisherOptions base;
  base.seed = static_cast<uint64_t>(config.seed);
  CKSAFE_ASSIGN_OR_RETURN(base.objective, ParseObjective(config.objective));

  // Hold back a slice of the table for streaming writes: the readers must
  // observe snapshot swaps mid-replay when --stream_batches > 0.
  const size_t total_rows = data.table.num_rows();
  const size_t batches = static_cast<size_t>(config.stream_batches);
  const size_t held_back =
      batches == 0 ? 0 : std::min(total_rows / 4, batches * 50);
  const size_t initial_rows = total_rows - held_back;
  Table initial = [&] {
    if (held_back == 0) return std::move(data.table);  // no copy needed
    Table truncated(data.table.schema());
    for (const auto& cells : RowCells(data.table, 0, initial_rows)) {
      CKSAFE_CHECK(truncated.AppendRow(cells).ok());
    }
    return truncated;
  }();

  MultiPolicyPublisher publisher(std::move(initial), data.qis,
                                 data.sensitive_column, base);
  for (const ParsedPolicy& policy : policies) {
    publisher.AddTenant(policy.name, policy.c, policy.k);
  }

  QueryRouter::Options router_options;
  router_options.queue_capacity = static_cast<size_t>(config.queue);
  std::unique_ptr<ServingEngine> engine_owner;
  if (config.persist.empty()) {
    engine_owner = std::make_unique<ServingEngine>(router_options);
  } else {
    DurableStoreOptions store_options;
    store_options.dir = config.persist;
    store_options.buffer_pool_pages = static_cast<size_t>(config.pool_pages);
    store_options.profile_max_k = static_cast<size_t>(config.max_k);
    CKSAFE_ASSIGN_OR_RETURN(
        engine_owner, ServingEngine::CreateDurable(std::move(store_options),
                                                   router_options));
    const RecoveryInfo& recovery = engine_owner->durable_store()->recovery();
    std::printf(
        "durable store %s: recovered %zu publishes across %zu tenants "
        "(%llu torn manifest bytes, %llu orphaned segment bytes discarded)\n",
        config.persist.c_str(), recovery.records, recovery.tenants,
        static_cast<unsigned long long>(recovery.manifest_torn_bytes),
        static_cast<unsigned long long>(recovery.segment_torn_bytes));
  }
  ServingEngine& engine = *engine_owner;

  // Registry of everything ever published, per (tenant, sequence): the
  // verification pass resolves each answer's named snapshot here.
  std::mutex registry_mu;
  SnapshotRegistry registry;
  // Publishes one PublishAll round (one durable group commit on a
  // persisted engine) and registers each released tenant's snapshot.
  auto publish_round = [&](const std::vector<TenantRelease>& releases) {
    CKSAFE_ASSIGN_OR_RETURN(
        const auto published,
        engine.PublishTenantReleases(releases, publisher.table().num_rows()));
    std::lock_guard<std::mutex> lock(registry_mu);
    auto snapshot = published.begin();
    for (const TenantRelease& release : releases) {
      if (!release.release.ok()) continue;
      registry[{release.tenant, (*snapshot)->sequence}] = *snapshot;
      ++snapshot;
    }
    return Status::OK();
  };
  CKSAFE_ASSIGN_OR_RETURN(std::vector<TenantRelease> first_releases,
                          publisher.PublishAll());
  for (const TenantRelease& release : first_releases) {
    if (!release.release.ok()) {
      std::printf("tenant %s: %s (not served)\n", release.tenant.c_str(),
                  release.release.status().ToString().c_str());
    }
  }
  CKSAFE_RETURN_IF_ERROR(publish_round(first_releases));

  // Writer: stream held-back rows through the shared publisher; every
  // re-publish swaps fresh snapshots under the readers.
  std::thread writer;
  std::atomic<bool> writer_failed{false};
  if (batches > 0 && held_back > 0) {
    writer = std::thread([&] {
      const size_t per_batch = held_back / batches;
      for (size_t b = 0; b < batches; ++b) {
        const size_t begin = initial_rows + b * per_batch;
        const size_t end =
            b + 1 == batches ? total_rows : begin + per_batch;
        if (Status st = publisher.AddBatch(RowCells(data.table, begin, end));
            !st.ok()) {
          writer_failed = true;
          return;
        }
        auto releases = publisher.PublishAll();
        if (!releases.ok() || !publish_round(*releases).ok()) {
          writer_failed = true;
          return;
        }
      }
    });
  }

  // Readers: split the replayed queries round-robin across --readers
  // threads, --rounds times.
  const size_t readers = static_cast<size_t>(config.readers);
  const size_t rounds = static_cast<size_t>(config.rounds);
  std::vector<std::vector<ReplayRecord>> per_reader(readers);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> reader_threads;
  for (size_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t i = r; i < replay.size(); i += readers) {
          ReplayRecord record;
          record.query = replay[i];
          const auto t0 = std::chrono::steady_clock::now();
          record.answer = engine.Ask(record.query);
          record.latency_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          per_reader[r].push_back(std::move(record));
        }
      }
    });
  }
  for (auto& thread : reader_threads) thread.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (writer.joinable()) writer.join();
  if (writer_failed) {
    return Status::Internal("streaming writer failed to publish");
  }
  engine.router()->Stop();

  // Traffic summary.
  size_t ok_answers = 0;
  size_t error_answers = 0;
  std::vector<int64_t> latencies;
  for (const auto& records : per_reader) {
    for (const ReplayRecord& record : records) {
      record.answer.ok() ? ++ok_answers : ++error_answers;
      latencies.push_back(record.latency_ns);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&](double p) -> double {
    if (latencies.empty()) return 0.0;
    const size_t index = std::min(
        latencies.size() - 1,
        static_cast<size_t>(p * static_cast<double>(latencies.size())));
    return static_cast<double>(latencies[index]) / 1e3;  // microseconds
  };
  const RouterStats stats = engine.router()->stats();
  std::printf(
      "served %zu queries (%zu ok, %zu errors) from %zu readers in %.3fs "
      "(%.0f queries/sec)\n",
      ok_answers + error_answers, ok_answers, error_answers, readers,
      elapsed_s, static_cast<double>(ok_answers + error_answers) / elapsed_s);
  std::printf("latency: p50 %.1fus  p99 %.1fus\n", percentile(0.50),
              percentile(0.99));
  std::printf(
      "router: %llu batches, %llu profile sweeps, %llu per-bucket sweeps, "
      "%llu snapshot reloads, %llu rejected; %.1f queries/sweep\n",
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.profile_sweeps),
      static_cast<unsigned long long>(stats.per_bucket_sweeps),
      static_cast<unsigned long long>(stats.snapshot_reloads),
      static_cast<unsigned long long>(stats.rejected),
      stats.CoalescingFactor());

  if (!config.persist.empty()) {
    // Reopen the directory exactly as a post-crash recovery would and
    // demand that every snapshot served this run reloads bit-identically.
    DurableStoreOptions reopen_options;
    reopen_options.dir = config.persist;
    reopen_options.buffer_pool_pages = static_cast<size_t>(config.pool_pages);
    CKSAFE_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> reopened,
                            DurableStore::Open(std::move(reopen_options)));
    size_t durable_checked = 0;
    for (const auto& [key, snapshot] : registry) {
      CKSAFE_ASSIGN_OR_RETURN(
          const std::shared_ptr<const ReleaseSnapshot> reloaded,
          reopened->LoadSnapshot(key.first, key.second));
      if (!SnapshotsBitIdentical(*reloaded, *snapshot)) {
        return Status::Internal(StrFormat(
            "rehydrated snapshot %llu of tenant %s differs from the served "
            "one",
            static_cast<unsigned long long>(key.second), key.first.c_str()));
      }
      ++durable_checked;
    }
    CKSAFE_ASSIGN_OR_RETURN(const DurableStore::VerifyReport audit,
                            reopened->Verify());
    std::printf(
        "durable store: %zu rehydrated snapshots bit-identical to served "
        "(%zu records, %zu pages audited)\n",
        durable_checked, audit.records, audit.pages);
  }

  return VerifyReplay(per_reader, registry, "replay file's");
}

// --- fleet: the multi-process shard replay driver --------------------------

// Replays a workload against a forked multi-process shard fleet: publishes
// every tenant policy through one MultiPolicyPublisher and hands each
// release to its tenant's shard, then --readers client threads ask their
// share of the queries one at a time while live tenant migrations
// optionally churn underneath, reports ok/errors/shed, and finally
// verifies every served answer bit-identically against a fresh synchronous
// DisclosureAnalyzer over the snapshot the answer names — across process
// boundaries, the wire codec, and any migrations.
Status RunFleet(const CliConfig& config) {
  if (config.shards < 1) {
    return Status::InvalidArgument("--shards must be >= 1");
  }
  if (config.readers < 1) {
    return Status::InvalidArgument("--readers must be >= 1");
  }
  if (config.rounds < 1) {
    return Status::InvalidArgument("--rounds must be >= 1");
  }
  if (config.queue < 1) {
    return Status::InvalidArgument("--queue must be >= 1");
  }
  if (config.migrations < 0) {
    return Status::InvalidArgument("--migrations must be >= 0");
  }
  if (config.replay.empty() && config.queries < 1) {
    return Status::InvalidArgument("--queries must be >= 1");
  }
  CKSAFE_RETURN_IF_ERROR(ValidateAttackerPower("max_k", config.max_k));
  CKSAFE_ASSIGN_OR_RETURN(LoadedData data, LoadData(config));

  std::vector<ParsedPolicy> policies;
  if (config.policies.empty()) {
    CKSAFE_RETURN_IF_ERROR(ValidateAttackerPower("k", config.k));
    policies.push_back(
        ParsedPolicy{"default", config.c, static_cast<size_t>(config.k)});
  } else {
    CKSAFE_ASSIGN_OR_RETURN(policies, ParsePolicies(config.policies));
  }
  std::vector<Query> replay;
  if (!config.replay.empty()) {
    CKSAFE_ASSIGN_OR_RETURN(replay, LoadReplayQueries(config.replay));
  }

  ShardFleetOptions fleet_options;
  fleet_options.num_shards = static_cast<size_t>(config.shards);
  fleet_options.durable_root = config.persist;
  const size_t queue = static_cast<size_t>(config.queue);
  const size_t pool_pages = static_cast<size_t>(config.pool_pages);
  fleet_options.tweak_shard = [queue, pool_pages](size_t,
                                                  ShardServerOptions* shard) {
    shard->router_queue_capacity = queue;
    shard->buffer_pool_pages = pool_pages;
  };
  CKSAFE_ASSIGN_OR_RETURN(std::unique_ptr<ShardFleet> fleet,
                          ShardFleet::Start(std::move(fleet_options)));
  const size_t num_shards = fleet->num_shards();

  // Publish every tenant policy from one shared sweep, each release to
  // its tenant's shard.
  PublisherOptions base;
  base.seed = static_cast<uint64_t>(config.seed);
  CKSAFE_ASSIGN_OR_RETURN(base.objective, ParseObjective(config.objective));
  MultiPolicyPublisher publisher(std::move(data.table), data.qis,
                                 data.sensitive_column, base);
  for (const ParsedPolicy& policy : policies) {
    publisher.AddTenant(policy.name, policy.c, policy.k);
  }
  CKSAFE_ASSIGN_OR_RETURN(std::vector<TenantRelease> releases,
                          publisher.PublishAll());
  std::vector<std::string> served;
  size_t min_buckets = std::numeric_limits<size_t>::max();
  for (const TenantRelease& release : releases) {
    if (!release.release.ok()) {
      std::printf("tenant %s: %s (not served)\n", release.tenant.c_str(),
                  release.release.status().ToString().c_str());
      continue;
    }
    CKSAFE_ASSIGN_OR_RETURN(
        const auto snapshot,
        fleet->Publish(release.tenant, *release.release,
                       publisher.table().num_rows()));
    std::printf("tenant %s -> shard %zu (snapshot %llu, %zu buckets)\n",
                release.tenant.c_str(), fleet->ShardOf(release.tenant),
                static_cast<unsigned long long>(snapshot->sequence),
                snapshot->bucketization.num_buckets());
    served.push_back(release.tenant);
    min_buckets = std::min(min_buckets, snapshot->bucketization.num_buckets());
  }
  if (served.empty()) {
    return Status::InvalidArgument("no tenant produced a publishable release");
  }
  // Without a replay file (used verbatim), the seeded workload foundry
  // asks only what every answer can serve: the tenants actually served,
  // and buckets that each of their snapshots has.
  if (config.replay.empty()) {
    WorkloadFoundryConfig workload;
    workload.seed = static_cast<uint64_t>(config.seed);
    workload.num_queries = static_cast<size_t>(config.queries);
    workload.tenants = served;
    workload.max_k = static_cast<size_t>(config.max_k);
    workload.max_bucket = min_buckets - 1;
    CKSAFE_ASSIGN_OR_RETURN(replay, GenerateWorkload(workload));
    std::printf("workload: %zu foundry queries (seed %llu), "
                "fingerprint %016llx\n",
                replay.size(), static_cast<unsigned long long>(workload.seed),
                static_cast<unsigned long long>(FingerprintWorkload(replay)));
  }

  // Optional live-migration churn under the load: round-robin tenants to
  // their next shard while the clients replay.
  std::atomic<bool> stop_migrator{false};
  std::atomic<size_t> migrations_done{0};
  std::atomic<bool> migration_failed{false};
  std::thread migrator;
  if (config.migrations > 0 && num_shards > 1) {
    migrator = std::thread([&] {
      for (int64_t m = 0; m < config.migrations && !stop_migrator; ++m) {
        const std::string& tenant =
            served[static_cast<size_t>(m) % served.size()];
        const size_t target = (fleet->ShardOf(tenant) + 1) % num_shards;
        if (!fleet->MigrateTenant(tenant, target).ok()) {
          migration_failed = true;
          return;
        }
        ++migrations_done;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  // Clients: each asks its share of the workload, one call at a time.
  const size_t clients = static_cast<size_t>(config.readers);
  const size_t rounds = static_cast<size_t>(config.rounds);
  std::vector<std::vector<ReplayRecord>> per_client(clients);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> client_threads;
  for (size_t r = 0; r < clients; ++r) {
    client_threads.emplace_back([&, r] {
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t i = r; i < replay.size(); i += clients) {
          ReplayRecord record;
          record.query = replay[i];
          record.answer = fleet->Ask(record.query);
          per_client[r].push_back(std::move(record));
        }
      }
    });
  }
  for (auto& thread : client_threads) thread.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stop_migrator = true;
  if (migrator.joinable()) migrator.join();
  if (migration_failed) {
    return Status::Internal("live migration failed during the replay");
  }

  // ResourceExhausted (fleet window or shard queue) is shedding, not an
  // error.
  size_t ok_answers = 0;
  size_t error_answers = 0;
  size_t shed = 0;
  for (const auto& records : per_client) {
    for (const ReplayRecord& record : records) {
      if (record.answer.ok()) {
        ++ok_answers;
      } else if (record.answer.status().code() ==
                 StatusCode::kResourceExhausted) {
        ++shed;
      } else {
        ++error_answers;
      }
    }
  }
  const size_t total = ok_answers + error_answers + shed;
  std::printf(
      "fleet: %zu shards served %zu queries (%zu ok, %zu errors, %zu shed) "
      "from %zu clients in %.3fs (%.0f queries/sec)\n",
      num_shards, total, ok_answers, error_answers, shed, clients, elapsed_s,
      static_cast<double>(total) / elapsed_s);
  if (config.migrations > 0) {
    std::printf("migrations: %zu completed live during the replay\n",
                migrations_done.load());
  }

  // Stop the fleet before verifying: verification only needs the writer's
  // registry, and a shard that cannot be reaped fails the run here.
  const SnapshotRegistry registry = fleet->PublishedRegistry();
  CKSAFE_RETURN_IF_ERROR(fleet->ShutdownAll());
  fleet.reset();
  return VerifyReplay(per_client, registry, "workload");
}

// Inspects / audits a durable store directory. Opening performs the same
// recovery a restart would (scanning the manifest, discarding torn tails),
// so `persist` on a crashed directory reports exactly what a reopening
// server will serve.
Status RunPersist(const CliConfig& config) {
  if (config.dir.empty()) {
    return Status::InvalidArgument("persist requires --dir=DIR");
  }
  DurableStoreOptions options;
  options.dir = config.dir;
  options.buffer_pool_pages = static_cast<size_t>(config.pool_pages);
  CKSAFE_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> store,
                          DurableStore::Open(std::move(options)));
  const RecoveryInfo& recovery = store->recovery();
  std::printf(
      "store %s: %zu committed publishes across %zu tenants\n"
      "manifest: %llu committed bytes, %llu torn bytes discarded\n"
      "segments: %llu committed bytes, %llu orphaned bytes discarded\n",
      config.dir.c_str(), recovery.records, recovery.tenants,
      static_cast<unsigned long long>(recovery.manifest_bytes),
      static_cast<unsigned long long>(recovery.manifest_torn_bytes),
      static_cast<unsigned long long>(recovery.segment_bytes),
      static_cast<unsigned long long>(recovery.segment_torn_bytes));
  if (config.dump) {
    TextTable out;
    out.SetHeader({"tenant", "seq", "rows", "pages", "offset", "dict"});
    for (const ManifestRecord& record : store->records()) {
      out.AddRow({record.tenant, std::to_string(record.sequence),
                  std::to_string(record.num_rows),
                  std::to_string(record.snapshot.pages),
                  std::to_string(record.snapshot.offset),
                  record.has_dict ? "+" + std::to_string(record.dict_count)
                                  : "-"});
    }
    std::printf("%s", out.Render().c_str());
  }
  if (config.verify) {
    CKSAFE_ASSIGN_OR_RETURN(const DurableStore::VerifyReport report,
                            store->Verify());
    std::printf(
        "verify OK: %zu records re-read (%zu pages), %zu disclosure "
        "profiles recomputed bit-identically\n",
        report.records, report.pages, report.profiles_checked);
  }
  return Status::OK();
}

Status RunAudit(const CliConfig& config) {
  CKSAFE_ASSIGN_OR_RETURN(LoadedData data, LoadData(config));
  // phi.k() (parsed from the knowledge file) is validated below before it
  // reaches the certified-bound sweep.
  CKSAFE_ASSIGN_OR_RETURN(LatticeNode node, ParseNode(config.node, data.qis));
  CKSAFE_ASSIGN_OR_RETURN(
      Bucketization bucketization,
      BucketizeAtNode(data.table, data.qis, node, data.sensitive_column));

  if (config.knowledge.empty()) {
    return Status::InvalidArgument("audit requires --knowledge=FILE");
  }
  std::ifstream in(config.knowledge);
  if (!in) return Status::IOError("cannot read " + config.knowledge);
  std::ostringstream buffer;
  buffer << in.rdbuf();

  KnowledgeParser parser(data.table, data.sensitive_column);
  CKSAFE_ASSIGN_OR_RETURN(KnowledgeFormula phi,
                          parser.ParseFormula(buffer.str()));
  KnowledgePrinter printer(data.table, data.sensitive_column);
  std::printf("attacker knowledge (k=%zu): %s\n", phi.k(),
              printer.FormulaToString(phi).c_str());
  CKSAFE_RETURN_IF_ERROR(ValidateAttackerPower("knowledge",
                                               static_cast<int64_t>(phi.k())));

  bool approx = config.approx;
  auto engine = ExactEngine::Create(bucketization);
  if (!approx && !engine.ok()) {
    std::printf("exact engine unavailable (%s); using Monte Carlo\n",
                engine.status().ToString().c_str());
    approx = true;
  }
  double risk = 0.0;
  Atom target;
  if (!approx) {
    if (!engine->IsConsistent(phi)) {
      std::printf("knowledge is inconsistent with the release\n");
      return Status::OK();
    }
    CKSAFE_ASSIGN_OR_RETURN(ExactDisclosure result,
                            engine->DisclosureRisk(phi));
    risk = result.disclosure;
    target = result.target;
  } else {
    SamplerOptions sampler_options;
    sampler_options.seed = static_cast<uint64_t>(config.seed);
    MonteCarloEngine sampler(bucketization, sampler_options);
    CKSAFE_ASSIGN_OR_RETURN(PosteriorEstimate posterior,
                            sampler.EstimatePosteriors(phi));
    risk = posterior.MaxDisclosure(&target);
    std::printf("(Monte Carlo: %llu accepted of %llu samples)\n",
                static_cast<unsigned long long>(posterior.accepted),
                static_cast<unsigned long long>(posterior.samples));
  }
  DisclosureAnalyzer analyzer(bucketization);
  const double bound = analyzer.MaxDisclosureImplications(phi.k()).disclosure;
  std::printf("disclosure risk of this formula: %.4f (%s)%s\n", risk,
              printer.AtomToString(target).c_str(),
              approx ? " [estimated]" : "");
  std::printf("certified worst case at k=%zu:   %.4f\n", phi.k(), bound);
  return Status::OK();
}

Status RunFig5(const CliConfig& config) {
  CKSAFE_RETURN_IF_ERROR(ValidateAttackerPower("max_k", config.max_k));
  CliConfig adult_config = config;
  adult_config.adult = true;
  CKSAFE_ASSIGN_OR_RETURN(LoadedData data, LoadData(adult_config));
  CKSAFE_ASSIGN_OR_RETURN(
      Fig5Result result,
      RunFigure5(data.table, data.qis, AdultFigure5Node(),
                 data.sensitive_column, static_cast<size_t>(config.max_k)));
  TextTable out;
  out.SetHeader({"k", "implication", "negation"});
  for (const Fig5Row& row : result.rows) {
    out.AddRow({std::to_string(row.k), TextTable::FormatDouble(row.implication),
                TextTable::FormatDouble(row.negation)});
  }
  std::printf("%s", out.Render().c_str());
  return Status::OK();
}

Status RunFig6(const CliConfig& config) {
  CliConfig adult_config = config;
  adult_config.adult = true;
  CKSAFE_ASSIGN_OR_RETURN(LoadedData data, LoadData(adult_config));
  CKSAFE_ASSIGN_OR_RETURN(
      Fig6Result result,
      RunFigure6(data.table, data.qis, data.sensitive_column));
  TextTable out;
  out.SetHeader({"min entropy", "k=1", "k=3", "k=5", "k=7", "k=9", "k=11"});
  const auto base = AggregateFig6Series(result, 0);
  std::vector<std::vector<Fig6SeriesPoint>> series;
  for (size_t i = 0; i < result.ks.size(); ++i) {
    series.push_back(AggregateFig6Series(result, i));
  }
  for (size_t p = 0; p < base.size(); ++p) {
    std::vector<std::string> row = {TextTable::FormatDouble(base[p].entropy)};
    for (const auto& s : series) {
      row.push_back(TextTable::FormatDouble(s[p].min_disclosure));
    }
    out.AddRow(std::move(row));
  }
  std::printf("%s", out.Render().c_str());
  return Status::OK();
}

// Textual CSV dump of a foundry table (labels for categoricals, raw codes
// for numerics) — inspectable with any external tool.
Status DumpFoundryCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open " + path);
  for (size_t col = 0; col < table.num_columns(); ++col) {
    out << (col ? "," : "") << table.schema().attribute(col).name();
  }
  out << "\n";
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t col = 0; col < table.num_columns(); ++col) {
      const AttributeDef& attr = table.schema().attribute(col);
      const int32_t code = table.at(static_cast<PersonId>(row), col);
      out << (col ? "," : "")
          << (attr.is_categorical() ? attr.LabelOf(code)
                                    : std::to_string(code));
    }
    out << "\n";
  }
  return Status::OK();
}

Status RunFoundry(const CliConfig& config) {
  TableFoundryConfig table_config;
  HierarchyFoundryConfig hierarchy_config;
  DeltaFoundryConfig delta_config;
  bool with_deltas = false;
  if (!config.scenario.empty()) {
    CKSAFE_ASSIGN_OR_RETURN(ScenarioConfig scenario,
                            FindScenario(config.scenario));
    table_config = scenario.table;
    hierarchy_config = scenario.hierarchy;
    delta_config = scenario.deltas;
    delta_config.num_ops = scenario.delta_ops;
    with_deltas = scenario.delta_ops > 0;
  } else {
    table_config.seed = static_cast<uint64_t>(config.seed);
    table_config.num_rows = static_cast<size_t>(config.rows);
    table_config.quasi_identifiers = {
        ColumnSpec{"Region", 12, true, ValueSkew::kZipf, 2},
        ColumnSpec{"Age", 16, false, ValueSkew::kClustered, 4}};
    table_config.sensitive = ColumnSpec{"Dx", 6, true, ValueSkew::kUniform, 1};
    hierarchy_config.seed = static_cast<uint64_t>(config.seed);
  }
  CKSAFE_ASSIGN_OR_RETURN(Table table, TableFoundry::Generate(table_config));
  std::printf("table: %zu rows x %zu columns (seed %llu)\n", table.num_rows(),
              table.num_columns(),
              static_cast<unsigned long long>(table_config.seed));
  std::printf("table fingerprint: %016llx\n",
              static_cast<unsigned long long>(FingerprintTable(table)));
  const size_t sensitive_column = table_config.quasi_identifiers.size();
  CKSAFE_ASSIGN_OR_RETURN(
      std::vector<QuasiIdentifier> qis,
      HierarchyFoundry::MakeQuasiIdentifiers(table, sensitive_column,
                                             hierarchy_config));
  for (const QuasiIdentifier& qi : qis) {
    std::printf("hierarchy %s: %zu levels, fingerprint %016llx\n",
                table.schema().attribute(qi.column).name().c_str(),
                qi.hierarchy->num_levels(),
                static_cast<unsigned long long>(
                    FingerprintHierarchy(*qi.hierarchy)));
  }
  if (with_deltas) {
    CKSAFE_ASSIGN_OR_RETURN(DeltaStream stream,
                            DeltaFoundry::Generate(delta_config));
    std::printf("delta stream: %zu initial + %zu ops, fingerprint %016llx\n",
                stream.initial.size(), stream.ops.size(),
                static_cast<unsigned long long>(
                    FingerprintDeltaStream(stream)));
  }
  if (!config.out.empty()) {
    CKSAFE_RETURN_IF_ERROR(DumpFoundryCsv(table, config.out));
    std::printf("wrote %s\n", config.out.c_str());
  }
  return Status::OK();
}

Status RunScenario(const CliConfig& config) {
  if (config.list) {
    for (const ScenarioConfig& scenario : ScenarioCatalog()) {
      std::printf("%-20s %s\n", scenario.name.c_str(),
                  scenario.summary.c_str());
    }
    return Status::OK();
  }
  std::vector<ScenarioConfig> to_run;
  if (!config.scenario.empty()) {
    CKSAFE_ASSIGN_OR_RETURN(ScenarioConfig scenario,
                            FindScenario(config.scenario));
    to_run.push_back(std::move(scenario));
  } else {
    to_run = ScenarioCatalog();
  }
  for (const ScenarioConfig& scenario : to_run) {
    CKSAFE_ASSIGN_OR_RETURN(ScenarioReport report,
                            ScenarioRunner::Run(scenario, config.scale));
    std::printf("scenario %s: PASS (%s)\n", scenario.name.c_str(),
                report.ToString().c_str());
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  CliConfig config;
  FlagParser flags;
  flags.AddBool("adult", &config.adult, "use the synthetic Adult workload");
  flags.AddInt64("rows", &config.rows, "synthetic Adult rows");
  flags.AddInt64("seed", &config.seed, "generator / permutation seed");
  flags.AddString("adult_csv", &config.adult_csv, "real UCI adult.data path");
  flags.AddString("input", &config.input, "arbitrary CSV dataset");
  flags.AddString("sensitive", &config.sensitive, "sensitive column name");
  flags.AddString("qi", &config.qi, "comma-separated quasi-identifier names");
  flags.AddString("node", &config.node, "generalization levels, e.g. 3,2,1,1");
  flags.AddInt64("max_k", &config.max_k, "largest attacker power for curves");
  flags.AddDouble("c", &config.c, "(c,k)-safety threshold");
  flags.AddInt64("k", &config.k, "attacker power for safety checks");
  flags.AddString("objective", &config.objective,
                  "discernibility | avg_class_size | height | loss");
  flags.AddString("out", &config.out, "generalized release CSV path");
  flags.AddString("out_qit", &config.out_qit, "Anatomy QI table CSV path");
  flags.AddString("out_st", &config.out_st, "Anatomy sensitive table CSV path");
  flags.AddString("knowledge", &config.knowledge, "attacker formula file");
  flags.AddBool("approx", &config.approx, "force Monte Carlo audit");
  flags.AddString("policies", &config.policies,
                  "multi-tenant policies, comma-separated [name=]c:k");
  flags.AddString("replay", &config.replay,
                  "serve: query file (tenant,kind,c,k,bucket per line)");
  flags.AddInt64("readers", &config.readers, "serve: reader thread count");
  flags.AddInt64("queue", &config.queue, "serve: admission queue capacity");
  flags.AddInt64("stream_batches", &config.stream_batches,
                 "serve: row batches streamed (and re-published) while "
                 "readers run");
  flags.AddInt64("rounds", &config.rounds,
                 "serve: times each reader replays its query share");
  flags.AddInt64("shards", &config.shards, "fleet: shard process count");
  flags.AddInt64("queries", &config.queries,
                 "fleet: foundry workload size when no --replay file is given");
  flags.AddInt64("migrations", &config.migrations,
                 "fleet: live tenant migrations performed during the replay");
  flags.AddString("scenario", &config.scenario,
                  "foundry/scenario: catalog entry name");
  flags.AddDouble("scale", &config.scale,
                  "scenario: multiplier on rows, ops and query counts");
  flags.AddBool("list", &config.list, "scenario: list the catalog and exit");
  flags.AddString("persist", &config.persist,
                  "serve: write-through durable store directory");
  flags.AddString("dir", &config.dir, "persist: store directory to inspect");
  flags.AddInt64("pool_pages", &config.pool_pages,
                 "durable store buffer pool capacity (4 KiB pages)");
  flags.AddBool("dump", &config.dump, "persist: list committed records");
  flags.AddBool("verify", &config.verify,
                "persist: re-read, decode and recompute everything");

  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage("cksafe_cli <command>").c_str());
    return 1;
  }
  if (flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: cksafe_cli <analyze|publish|multi|serve|fleet|audit|"
                 "fig5|fig6|foundry|scenario|persist> [flags]\n%s",
                 flags.Usage("cksafe_cli <command>").c_str());
    return 1;
  }
  const std::string& command = flags.positional()[0];
  Status st;
  if (command == "analyze") {
    st = RunAnalyze(config);
  } else if (command == "publish") {
    st = RunPublish(config);
  } else if (command == "multi") {
    st = RunMulti(config);
  } else if (command == "serve") {
    st = RunServe(config);
  } else if (command == "fleet") {
    st = RunFleet(config);
  } else if (command == "audit") {
    st = RunAudit(config);
  } else if (command == "fig5") {
    st = RunFig5(config);
  } else if (command == "fig6") {
    st = RunFig6(config);
  } else if (command == "foundry") {
    st = RunFoundry(config);
  } else if (command == "scenario") {
    st = RunScenario(config);
  } else if (command == "persist") {
    st = RunPersist(config);
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 1;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cksafe

int main(int argc, char** argv) { return cksafe::Main(argc, argv); }
