#include "cksafe/foundry/scenario.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <thread>
#include <utility>

#include "cksafe/core/disclosure.h"
#include "cksafe/exact/exact_engine.h"
#include "cksafe/serve/reference_answer.h"
#include "cksafe/serve/serving_engine.h"
#include "cksafe/stream/multi_policy_publisher.h"
#include "cksafe/util/string_util.h"

namespace cksafe {
namespace {

constexpr double kOracleTol = 1e-9;

size_t ScaleCount(size_t n, double scale, size_t floor) {
  const double scaled = static_cast<double>(n) * scale;
  if (scaled <= static_cast<double>(floor)) return floor;
  return static_cast<size_t>(scaled);
}

// Rows [begin, end) of `table` as AddBatch-ready cell vectors.
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

Query MakeQuery(Rng* rng, const std::vector<ScenarioPolicy>& policies,
                const QueryMixConfig& mix) {
  Query query;
  query.tenant = policies[rng->NextBelow(policies.size())].tenant;
  query.k = rng->NextBelow(mix.max_k + 1);
  switch (rng->NextBelow(4)) {
    case 0:
      query.kind = QueryKind::kIsCkSafe;
      query.c = 0.3 + 0.1 * static_cast<double>(rng->NextBelow(7));
      break;
    case 1:
      query.kind = QueryKind::kDisclosure;
      break;
    case 2:
      query.kind = QueryKind::kProfileAtK;
      break;
    default:
      query.kind = QueryKind::kPerBucket;
      query.bucket = rng->NextBelow(std::max<size_t>(1, mix.max_bucket_probe));
      break;
  }
  return query;
}

// Exact-oracle pass over every published snapshot small enough to
// enumerate: the DP curves must match world enumeration to 1e-9.
Status CheckExactOracle(const ScenarioConfig& config,
                        const SnapshotRegistry& registry,
                        ScenarioReport* report) {
  for (const auto& [key, snapshot] : registry) {
    if (snapshot->bucketization.num_tuples() > config.exact_max_tuples) {
      continue;
    }
    auto oracle = ExactEngine::Create(snapshot->bucketization);
    if (!oracle.ok()) continue;  // world count still too large
    DisclosureAnalyzer analyzer(snapshot->bucketization);
    const size_t max_k = std::min<size_t>(2, config.queries.max_k);
    const DisclosureProfile profile = analyzer.Profile(max_k);
    for (size_t k = 0; k <= max_k; ++k) {
      CKSAFE_ASSIGN_OR_RETURN(
          ExactDisclosure brute,
          oracle->MaxDisclosureSimpleImplications(k, /*same_consequent=*/true));
      if (std::fabs(profile.implication[k] - brute.disclosure) > kOracleTol) {
        return Status::Internal(StrFormat(
            "scenario %s: implication curve diverges from the exact oracle "
            "at k=%zu (tenant %s)",
            config.name.c_str(), k, key.first.c_str()));
      }
      auto brute_neg = oracle->MaxDisclosureNegations(k);
      if (brute_neg.ok() &&
          std::fabs(profile.negation[k] - brute_neg->disclosure) >
              kOracleTol) {
        return Status::Internal(StrFormat(
            "scenario %s: negation curve diverges from the exact oracle at "
            "k=%zu (tenant %s)",
            config.name.c_str(), k, key.first.c_str()));
      }
      ++report->exact_checks;
    }
  }
  if (report->exact_checks == 0) {
    return Status::Internal(
        "scenario " + config.name +
        ": check_exact is set but no published snapshot was small enough "
        "for the exact oracle");
  }
  return Status::OK();
}

// Delta-stream leg: every op's profile must be bit-identical to a fresh
// analyzer over the materialized state (the stream/ contract).
Status RunDeltaLeg(const ScenarioConfig& config, double scale,
                   ScenarioReport* report) {
  DeltaFoundryConfig delta_config = config.deltas;
  delta_config.num_ops = ScaleCount(config.delta_ops, scale, 1);
  CKSAFE_ASSIGN_OR_RETURN(DeltaStream stream,
                          DeltaFoundry::Generate(delta_config));
  IncrementalAnalyzer incremental(delta_config.domain);
  const auto check = [&]() -> Status {
    const DisclosureProfile live =
        incremental.Profile(config.delta_profile_k);
    const Bucketization current = incremental.CurrentBucketization();
    DisclosureAnalyzer fresh(current);
    const DisclosureProfile reference =
        fresh.Profile(config.delta_profile_k);
    if (live.implication != reference.implication ||
        live.implication_log_r != reference.implication_log_r ||
        live.negation != reference.negation) {
      return Status::Internal(StrFormat(
          "scenario %s: incremental profile diverged from a fresh analyzer "
          "after %llu deltas",
          config.name.c_str(),
          static_cast<unsigned long long>(report->delta_ops_applied)));
    }
    ++report->delta_profiles_verified;
    return Status::OK();
  };
  for (const DeltaOp& op : stream.initial) {
    ApplyDelta(op, &incremental);
    ++report->delta_ops_applied;
  }
  CKSAFE_RETURN_IF_ERROR(check());
  for (const DeltaOp& op : stream.ops) {
    ApplyDelta(op, &incremental);
    ++report->delta_ops_applied;
    CKSAFE_RETURN_IF_ERROR(check());
  }
  return Status::OK();
}

// Publishes one PublishAll round's tenant releases into the engine and
// the registry.
Status PublishRound(const std::vector<TenantRelease>& releases,
                    size_t num_rows, ServingEngine* engine,
                    SnapshotRegistry* registry, ScenarioReport* report) {
  CKSAFE_ASSIGN_OR_RETURN(const auto published,
                          engine->PublishTenantReleases(releases, num_rows));
  auto snapshot = published.begin();
  for (const TenantRelease& release : releases) {
    if (!release.release.ok()) continue;  // unsatisfiable policy: skipped
    (*registry)[{release.tenant, (*snapshot)->sequence}] = *snapshot;
    ++snapshot;
  }
  report->releases += published.size();
  return Status::OK();
}

}  // namespace

std::string ScenarioReport::ToString() const {
  return StrFormat(
      "%zu releases, %zu answers verified (%zu query errors), %zu exact "
      "checks, %zu deltas (%zu profiles verified)",
      releases, answers_verified, query_errors, exact_checks,
      delta_ops_applied, delta_profiles_verified);
}

StatusOr<ScenarioReport> ScenarioRunner::Run(const ScenarioConfig& config,
                                             double scale) {
  if (config.policies.empty()) {
    return Status::InvalidArgument("scenario " + config.name +
                                   " declares no tenant policies");
  }
  if (config.release_batches < 1) {
    return Status::InvalidArgument("scenario " + config.name +
                                   " needs release_batches >= 1");
  }
  if (scale <= 0.0) {
    return Status::InvalidArgument("scenario scale must be > 0");
  }
  ScenarioReport report;

  // --- Generate the world ------------------------------------------------
  TableFoundryConfig table_config = config.table;
  table_config.num_rows =
      ScaleCount(config.table.num_rows, scale, 4 * config.release_batches);
  CKSAFE_ASSIGN_OR_RETURN(Table table, TableFoundry::Generate(table_config));
  const size_t sensitive_column = table_config.quasi_identifiers.size();
  CKSAFE_ASSIGN_OR_RETURN(
      std::vector<QuasiIdentifier> qis,
      HierarchyFoundry::MakeQuasiIdentifiers(table, sensitive_column,
                                             config.hierarchy));

  const size_t total_rows = table.num_rows();
  const size_t batches = config.release_batches;
  const size_t per_batch = total_rows / batches;
  const auto batch_bounds = [&](size_t b) {
    return std::make_pair(b * per_batch,
                          b + 1 == batches ? total_rows : (b + 1) * per_batch);
  };

  Table initial(table.schema());
  for (const auto& cells : RowCells(table, 0, batch_bounds(0).second)) {
    CKSAFE_RETURN_IF_ERROR(initial.AppendRow(cells));
  }

  PublisherOptions base;
  base.seed = config.publisher_seed;
  MultiPolicyPublisher publisher(std::move(initial), qis, sensitive_column,
                                 base);
  for (const ScenarioPolicy& policy : config.policies) {
    publisher.AddTenant(policy.tenant, policy.c, policy.k);
  }

  const size_t queries_per_round =
      ScaleCount(config.queries.per_release, scale, 1);
  QueryRouter::Options router_options;
  router_options.queue_capacity = std::max<size_t>(4096, 2 * queries_per_round);
  router_options.start_worker = config.concurrent;
  ServingEngine engine(router_options);

  SnapshotRegistry registry;
  std::vector<ServedAnswer> records;

  CKSAFE_ASSIGN_OR_RETURN(std::vector<TenantRelease> first,
                          publisher.PublishAll());
  CKSAFE_RETURN_IF_ERROR(PublishRound(first, publisher.table().num_rows(),
                                      &engine, &registry, &report));

  if (!config.concurrent) {
    // Deterministic serve loop: publish a round, enqueue the round's query
    // mix, drain it on this thread, repeat.
    Rng query_rng(config.queries.seed);
    for (size_t round = 0; round < batches; ++round) {
      if (round > 0) {
        const auto [begin, end] = batch_bounds(round);
        CKSAFE_RETURN_IF_ERROR(publisher.AddBatch(RowCells(table, begin, end)));
        CKSAFE_ASSIGN_OR_RETURN(std::vector<TenantRelease> releases,
                                publisher.PublishAll());
        CKSAFE_RETURN_IF_ERROR(PublishRound(releases,
                                            publisher.table().num_rows(),
                                            &engine, &registry, &report));
      }
      std::vector<std::pair<Query, std::future<StatusOr<QueryAnswer>>>>
          pending;
      for (size_t q = 0; q < queries_per_round; ++q) {
        Query query = MakeQuery(&query_rng, config.policies, config.queries);
        auto submitted = engine.router()->Submit(query);
        if (!submitted.ok()) return submitted.status();
        pending.emplace_back(std::move(query), std::move(*submitted));
      }
      while (engine.router()->DrainOnce() > 0) {
      }
      for (auto& [query, future] : pending) {
        StatusOr<QueryAnswer> answer = future.get();
        if (answer.ok()) {
          records.push_back({std::move(query), *answer});
          ++report.queries_answered;
        } else {
          ++report.query_errors;
        }
      }
    }
  } else {
    // Serve-under-swap: a live worker serves reader threads while a writer
    // streams the remaining batches and swaps snapshots beneath them.
    std::atomic<bool> writer_failed{false};
    std::thread writer([&] {
      for (size_t round = 1; round < batches; ++round) {
        const auto [begin, end] = batch_bounds(round);
        if (!publisher.AddBatch(RowCells(table, begin, end)).ok()) {
          writer_failed = true;
          return;
        }
        auto releases = publisher.PublishAll();
        if (!releases.ok()) {
          writer_failed = true;
          return;
        }
        if (!PublishRound(*releases, publisher.table().num_rows(), &engine,
                          &registry, &report)
                 .ok()) {
          writer_failed = true;
          return;
        }
      }
    });
    const size_t readers = std::max<size_t>(1, config.reader_threads);
    std::vector<std::vector<ServedAnswer>> reader_records(readers);
    std::vector<size_t> reader_errors(readers, 0);
    std::vector<std::thread> reader_threads;
    for (size_t r = 0; r < readers; ++r) {
      reader_threads.emplace_back([&, r] {
        Rng rng(config.queries.seed + 1000 * (r + 1));
        const size_t count = queries_per_round * batches;
        for (size_t q = 0; q < count; ++q) {
          Query query = MakeQuery(&rng, config.policies, config.queries);
          StatusOr<QueryAnswer> answer = engine.Ask(query);
          if (answer.ok()) {
            reader_records[r].push_back({std::move(query), *answer});
          } else {
            ++reader_errors[r];
          }
        }
      });
    }
    for (auto& thread : reader_threads) thread.join();
    writer.join();
    engine.router()->Stop();
    if (writer_failed) {
      return Status::Internal("scenario " + config.name +
                              ": streaming writer failed to publish");
    }
    for (size_t r = 0; r < readers; ++r) {
      report.queries_answered += reader_records[r].size();
      report.query_errors += reader_errors[r];
      records.insert(records.end(),
                     std::make_move_iterator(reader_records[r].begin()),
                     std::make_move_iterator(reader_records[r].end()));
    }
  }

  if (report.releases == 0) {
    return Status::Internal("scenario " + config.name +
                            ": no tenant policy was satisfiable");
  }
  // Post-hoc bit-identity: every answer against a fresh analyzer over the
  // one snapshot it names (the serve layer's RCU contract).
  if (Status verified = VerifyServedAnswers(records, registry);
      !verified.ok()) {
    return Status::Internal("scenario " + config.name + ": " +
                            verified.message());
  }
  report.answers_verified = records.size();
  if (report.answers_verified == 0) {
    return Status::Internal("scenario " + config.name +
                            ": no answer could be verified");
  }
  if (config.check_exact) {
    CKSAFE_RETURN_IF_ERROR(CheckExactOracle(config, registry, &report));
  }
  if (config.delta_ops > 0) {
    CKSAFE_RETURN_IF_ERROR(RunDeltaLeg(config, scale, &report));
  }
  return report;
}

namespace {

ScenarioConfig HeavySkew() {
  ScenarioConfig s;
  s.name = "heavy_skew";
  s.summary =
      "Zipf-skewed QIs, clustered ages, and a QI-correlated sensitive "
      "marginal: very uneven bucket sizes at every lattice node";
  s.table.seed = 0x5e11aULL;
  s.table.num_rows = 900;
  s.table.quasi_identifiers = {
      ColumnSpec{"Region", 12, true, ValueSkew::kZipf, 2},
      ColumnSpec{"Age", 16, false, ValueSkew::kClustered, 4}};
  s.table.sensitive = ColumnSpec{"Dx", 6, true, ValueSkew::kZipf, 1};
  s.table.correlate_sensitive = true;
  s.hierarchy.seed = 0x4ea1ULL;
  s.hierarchy.fanout = 3;
  s.hierarchy.max_levels = 3;
  s.policies = {{"audit", 0.95, 2}, {"lenient", 0.85, 1}};
  s.queries.seed = 0x9a11ULL;
  s.queries.per_release = 48;
  s.queries.max_k = 4;
  return s;
}

ScenarioConfig DeepHierarchy() {
  ScenarioConfig s;
  s.name = "deep_hierarchy";
  s.summary =
      "64-value numeric domain under a fanout-2 interval ladder: the "
      "tallest lattice the hand-written fixtures never build";
  s.table.seed = 0xdee9ULL;
  s.table.num_rows = 600;
  s.table.quasi_identifiers = {
      ColumnSpec{"Code", 64, false, ValueSkew::kUniform, 1},
      ColumnSpec{"Grp", 8, true, ValueSkew::kUniform, 1}};
  s.table.sensitive = ColumnSpec{"Dx", 5, true, ValueSkew::kUniform, 1};
  s.hierarchy.seed = 0xdee9ULL;
  s.hierarchy.fanout = 2;
  s.hierarchy.max_levels = 6;
  s.policies = {{"deep", 0.9, 2}};
  s.queries.seed = 0xdee9aULL;
  s.queries.per_release = 32;
  s.queries.max_k = 3;
  return s;
}

ScenarioConfig HighChurnStream() {
  ScenarioConfig s;
  s.name = "high_churn_stream";
  s.summary =
      "145 mutations at 45% churn through the incremental analyzer, every "
      "op differential-checked; plus a small serve leg";
  s.table.seed = 0xc4a2ULL;
  s.table.num_rows = 240;
  s.table.quasi_identifiers = {
      ColumnSpec{"G", 8, true, ValueSkew::kUniform, 1}};
  s.table.sensitive = ColumnSpec{"S", 5, true, ValueSkew::kUniform, 1};
  s.policies = {{"churn", 0.9, 2}};
  s.queries.seed = 0xc4a21ULL;
  s.queries.per_release = 16;
  s.queries.max_k = 4;
  s.delta_ops = 145;
  s.deltas.seed = 0xc4a22ULL;
  s.deltas.domain = 5;
  s.deltas.initial_buckets = 5;
  s.deltas.min_buckets = 2;
  s.deltas.max_batch = 8;
  s.deltas.churn_percent = 45;
  s.deltas.skew = ValueSkew::kZipf;
  s.deltas.skew_param = 2;
  s.delta_profile_k = 4;
  return s;
}

ScenarioConfig TenantFleet() {
  ScenarioConfig s;
  s.name = "tenant_fleet";
  s.summary =
      "five (c,k) policies served from one shared sweep; the strictest may "
      "be unsatisfiable and must fail without blocking the fleet";
  s.table.seed = 0xf1ee7ULL;
  s.table.num_rows = 800;
  s.table.quasi_identifiers = {
      ColumnSpec{"Zip", 10, true, ValueSkew::kClustered, 3},
      ColumnSpec{"Age", 32, false, ValueSkew::kUniform, 1},
      ColumnSpec{"Sex", 2, true, ValueSkew::kUniform, 1}};
  s.table.sensitive = ColumnSpec{"Dx", 8, true, ValueSkew::kUniform, 1};
  s.hierarchy.seed = 0xf1ee71ULL;
  s.hierarchy.fanout = 2;
  s.hierarchy.max_levels = 4;
  s.policies = {{"gold", 0.5, 4},
                {"silver", 0.6, 3},
                {"std", 0.7, 2},
                {"bronze", 0.8, 1},
                {"free", 0.9, 1}};
  s.release_batches = 2;
  s.queries.seed = 0xf1ee72ULL;
  s.queries.per_release = 40;
  s.queries.max_k = 4;
  return s;
}

ScenarioConfig ServeUnderSwap() {
  ScenarioConfig s;
  s.name = "serve_under_swap";
  s.summary =
      "live router worker + reader threads while a writer re-publishes "
      "four growing batches: RCU consistency under concurrent swaps";
  s.table.seed = 0x5a9b5ULL;
  s.table.num_rows = 600;
  s.table.quasi_identifiers = {
      ColumnSpec{"Reg", 10, true, ValueSkew::kZipf, 2},
      ColumnSpec{"Age", 16, false, ValueSkew::kUniform, 1}};
  s.table.sensitive = ColumnSpec{"Dx", 6, true, ValueSkew::kUniform, 1};
  s.policies = {{"hot", 0.9, 3}, {"cold", 0.8, 2}};
  s.release_batches = 4;
  s.queries.seed = 0x5a9b51ULL;
  s.queries.per_release = 50;
  s.queries.max_k = 4;
  s.concurrent = true;
  s.reader_threads = 2;
  return s;
}

ScenarioConfig SequentialRelease() {
  ScenarioConfig s;
  s.name = "sequential_release";
  s.summary =
      "trajectory-style growth: six releases of one growing table, each "
      "re-searched and served, queries after every release";
  s.table.seed = 0x5e9ecULL;
  s.table.num_rows = 720;
  s.table.quasi_identifiers = {
      ColumnSpec{"Zip", 12, true, ValueSkew::kUniform, 1},
      ColumnSpec{"Age", 24, false, ValueSkew::kClustered, 3}};
  s.table.sensitive = ColumnSpec{"Dx", 6, true, ValueSkew::kUniform, 1};
  s.hierarchy.seed = 0x5e9ec1ULL;
  s.hierarchy.fanout = 2;
  s.hierarchy.max_levels = 4;
  s.policies = {{"seq", 0.9, 2}};
  s.release_batches = 6;
  s.queries.seed = 0x5e9ec2ULL;
  s.queries.per_release = 24;
  s.queries.max_k = 3;
  return s;
}

ScenarioConfig SmallWorldExact() {
  ScenarioConfig s;
  s.name = "small_world_exact";
  s.summary =
      "eight-row world where every disclosure curve is re-proved by exact "
      "world enumeration";
  s.table.seed = 0x0c7ULL;
  s.table.num_rows = 8;
  s.table.quasi_identifiers = {
      ColumnSpec{"G", 3, true, ValueSkew::kUniform, 1}};
  s.table.sensitive = ColumnSpec{"S", 3, true, ValueSkew::kUniform, 1};
  s.hierarchy.seed = 0x0c71ULL;
  s.hierarchy.fanout = 2;
  s.hierarchy.max_levels = 2;
  s.policies = {{"exact", 0.98, 1}};
  s.queries.seed = 0x0c72ULL;
  s.queries.per_release = 40;
  s.queries.max_k = 2;
  s.queries.max_bucket_probe = 1;
  s.check_exact = true;
  s.exact_max_tuples = 10;
  return s;
}

}  // namespace

const std::vector<ScenarioConfig>& ScenarioCatalog() {
  static const std::vector<ScenarioConfig>* catalog = [] {
    auto* list = new std::vector<ScenarioConfig>();
    list->push_back(HeavySkew());
    list->push_back(DeepHierarchy());
    list->push_back(HighChurnStream());
    list->push_back(TenantFleet());
    list->push_back(ServeUnderSwap());
    list->push_back(SequentialRelease());
    list->push_back(SmallWorldExact());
    return list;
  }();
  return *catalog;
}

StatusOr<ScenarioConfig> FindScenario(std::string_view name) {
  std::vector<std::string> known;
  for (const ScenarioConfig& scenario : ScenarioCatalog()) {
    if (scenario.name == name) return scenario;
    known.push_back(scenario.name);
  }
  return Status::NotFound("unknown scenario '" + std::string(name) +
                          "'; known: " + Join(known, ", "));
}

}  // namespace cksafe
