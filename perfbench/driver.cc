// Benchmark driver: runs one workload against the library's public entry
// points and writes the raw measurements as one JSON object.
//
//   perfbench_driver --workload trec4_adaptive|trec6_broker|trec4_churn
//                    --seed N --seconds S --trace 0|1 --out raw.json
//                    [--trace-out trace.json]
//
// perfbench/run.py builds this binary, turns the raw measurements into the
// benchmark's metrics, runs the checks and prints the result line; see
// perfbench/README.md for the workloads and the metric definitions.
//
// The testbeds and the set-up sampling use fixed seeds, so every run of a
// workload builds the same federation. --seed drives only what the
// workload sends: query order, scorer rotation, broker arrivals and slow
// faults, and corpus churn.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fedsearch/broker/load_generator.h"
#include "fedsearch/broker/query_broker.h"
#include "fedsearch/core/hierarchy_summaries.h"
#include "fedsearch/core/live_metasearcher.h"
#include "fedsearch/core/metasearcher.h"
#include "fedsearch/core/shrinkage.h"
#include "fedsearch/corpus/churn.h"
#include "fedsearch/corpus/testbed.h"
#include "fedsearch/corpus/topic_model.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/bgloss.h"
#include "fedsearch/selection/cori.h"
#include "fedsearch/selection/lm.h"
#include "fedsearch/selection/rk_metric.h"
#include "fedsearch/selection/scoring.h"
#include "fedsearch/util/json_writer.h"
#include "fedsearch/util/metrics.h"
#include "fedsearch/util/rng.h"
#include "fedsearch/util/trace.h"

using namespace fedsearch;

namespace {

using util::Tracer;

// ------------------------------------------------------------ settings --

// Set-up repetitions per run; setup_s is their median.
constexpr size_t kSetupRepeats = 5;
// Fixed seed of the set-up sampling pass (identical federation every run).
constexpr uint64_t kSampleSeed = 0x5A3F1E;
// Closed-loop clients of trec4_adaptive.
constexpr size_t kAdaptiveClients = 4;
// trec6_broker shape: workers, offered load relative to the modeled
// sustainable rate, slow faults, and requests per measured second.
constexpr size_t kBrokerWorkers = 3;
constexpr double kBrokerOverload = 2.0;
constexpr double kBrokerSlowRate = 0.05;
constexpr double kBrokerSlowFactor = 8.0;
constexpr size_t kBrokerRequestsPerSecond = 25000;
constexpr size_t kBrokerWarmupRequests = 3000;
// The arrival schedule is submitted in rounds, each followed by Drain;
// goodput_qps is the median round. The virtual schedule, and so every
// disposition, is the same as for one long round.
constexpr size_t kBrokerRounds = 5;
// trec4_churn shape: reader threads, refresh cycles and reader requests
// per measured second. A refresh cycle takes 4-5 s on a 4-core
// machine and N / kChurnRefreshes reader requests take ~6 s. Readers
// keep going past N until the last refresh is published, so every cycle
// runs beside reads however fast reads or refreshes become.
constexpr size_t kChurnReaders = 3;
constexpr size_t kChurnRefreshes = 2;
constexpr size_t kChurnRequestsPerSecond = 2000;
// Tracer buffer for the traced run, and the request cap that keeps a
// traced run inside it (a request records at most ~10 spans).
constexpr size_t kTraceCapacity = 400000;
constexpr size_t kTracedRequestCap = 25000;
// Serial passes timed untraced and traced for the tracing overhead.
constexpr size_t kOverheadPasses = 3;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  return static_cast<double>(util::ProcessCpuNanos()) * 1e-9;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Mixes the workload seed with a stream tag, so every consumer of the seed
// (clients, arrivals, churn) draws an independent stream.
uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag * 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 31;
  return z * 0x94D049BB133111EBULL + 1;
}

// Every (query, scorer) pair once, in a seeded order. Closed-loop clients
// cycle through their own permutation, so each run sends the same request
// mix and the seed only changes the order.
std::vector<std::pair<size_t, size_t>> RequestCycle(size_t num_queries,
                                                    size_t num_scorers,
                                                    util::Rng& rng) {
  std::vector<std::pair<size_t, size_t>> cycle;
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t s = 0; s < num_scorers; ++s) cycle.emplace_back(q, s);
  }
  rng.Shuffle(cycle);
  return cycle;
}

// Same FNV-1a as QueryBroker's RequestResult::ranking_hash, so served
// broker rankings compare against serial references.
uint64_t HashRanking(const std::vector<selection::RankedDatabase>& ranking) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (v >> shift) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  for (const selection::RankedDatabase& entry : ranking) {
    uint64_t score_bits = 0;
    std::memcpy(&score_bits, &entry.score, sizeof(score_bits));
    mix(static_cast<uint64_t>(entry.database));
    mix(score_bits);
  }
  return h == 0 ? 1 : h;
}

// ----------------------------------------------------------- raw output --

// Named scalars and series, written as {"values": {...}, "series": {...}}.
// run.py derives every metric and check from these names.
struct Raw {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> series;

  void Set(const std::string& name, double v) { values[name] = v; }
  void Add(const std::string& name, double v) { series[name].push_back(v); }

  std::string ToJson() const {
    util::JsonWriter w;
    w.BeginObject();
    w.Key("values").BeginObject();
    for (const auto& [name, v] : values) w.Key(name).Value(v);
    w.EndObject();
    w.Key("series").BeginObject();
    for (const auto& [name, list] : series) {
      w.Key(name).BeginArray();
      for (double v : list) w.Value(v);
      w.EndArray();
    }
    w.EndObject();
    w.EndObject();
    return w.str();
  }
};

// Registry counters and histograms the per-layer metrics read. The
// registry is reset before each phase, so a read is that phase's total.
void ReadRegistry(const std::string& prefix, Raw& raw) {
  util::MetricsRegistry& reg = util::GlobalMetrics();
  static const char* const kCounters[] = {
      "adaptive.evaluations",          "adaptive.gate_complete_sample",
      "adaptive.gate_no_mixed_evidence", "adaptive.chose_shrunk",
      "adaptive.chose_plain",          "posterior_cache.hits",
      "posterior_cache.misses",        "posterior_cache.evictions",
      "posterior_cache.stale_misses",  "scoring_stats_cache.hits",
      "scoring_stats_cache.misses",    "serving.queries",
      "sampling.queries_sent",         "sampling.documents_sampled",
      "broker.batches",                "broker.downgrades",
      "broker.served_full",            "broker.served_degraded",
      "broker.shed_queue_full",        "broker.shed_predicted_miss",
      "broker.expired_in_queue",       "broker.expired_executing",
  };
  for (const char* name : kCounters) {
    raw.Set(prefix + name, static_cast<double>(reg.counter(name).value()));
  }
  util::Histogram& draws = reg.histogram("adaptive.draws");
  raw.Set(prefix + "adaptive.draws_sum", static_cast<double>(draws.sum()));
  util::Histogram& em = reg.histogram("em.iterations");
  raw.Set(prefix + "em.iterations_sum", static_cast<double>(em.sum()));
  util::Histogram& batch = reg.histogram("broker.batch_size");
  raw.Set(prefix + "broker.batch_size_mean", batch.mean());
  util::Histogram& select = reg.histogram("serving.select_databases_ns");
  raw.Set(prefix + "select_hist.count", static_cast<double>(select.count()));
  raw.Set(prefix + "select_hist.p50_ms", select.Percentile(50.0) * 1e-6);
  raw.Set(prefix + "select_hist.p99_ms", select.Percentile(99.0) * 1e-6);
}

// ---------------------------------------------------------------- inputs --

// TREC-like testbeds sized so one set-up takes a few seconds: 40
// databases of 500-3000 documents (150-document samples stay far below
// the complete-sample gate), and topic vocabularies a quarter of the
// library's defaults. Fixed seeds: every run sees the same corpus.
corpus::TestbedOptions BenchTestbed(bool trec6, bool keep_documents) {
  corpus::TestbedOptions o = trec6 ? corpus::Testbed::Trec6Options(1.0)
                                   : corpus::Testbed::Trec4Options(1.0);
  o.num_databases = 40;
  o.min_db_docs = 500;
  o.max_db_docs = 3000;
  for (size_t& size : o.model.vocab_size_by_depth) size /= 4;
  o.model.database_vocab_size /= 4;
  o.keep_documents = keep_documents;
  return o;
}

sampling::QbsSampler BenchSampler(const corpus::Testbed& bed) {
  sampling::QbsOptions options;
  options.target_documents = 150;
  options.build.frequency_estimation = true;
  return sampling::QbsSampler(options,
                              corpus::BuildSamplerDictionary(bed.model(), 20));
}

struct Federation {
  std::vector<sampling::SampleResult> samples;
  std::vector<corpus::CategoryId> classifications;
};

Federation SampleAll(const corpus::Testbed& bed,
                     const sampling::QbsSampler& sampler) {
  Federation fed;
  util::Rng rng(kSampleSeed);
  for (size_t i = 0; i < bed.num_databases(); ++i) {
    util::Rng db_rng = rng.Fork();
    fed.samples.push_back(sampler.Sample(bed.database(i), db_rng));
    fed.classifications.push_back(bed.directory_category_of(i));
  }
  return fed;
}

std::vector<selection::Query> AnalyzedQueries(const corpus::Testbed& bed) {
  std::vector<selection::Query> queries;
  for (const corpus::TestQuery& tq : bed.queries()) {
    queries.push_back(selection::Query{bed.analyzer().Analyze(tq.text)});
  }
  return queries;
}

struct Scorers {
  selection::CoriScorer cori;
  selection::BglossScorer bgloss;
  selection::LmScorer lm;
  const selection::ScoringFunction* all[3] = {&cori, &bgloss, &lm};
};
constexpr size_t kNumScorers = 3;

core::MetasearcherOptions ServingOptions() {
  core::MetasearcherOptions options;
  options.num_threads = 1;  // clients / broker workers are the parallelism
  return options;
}

// ---------------------------------------------------------------- set-up --

corpus::Testbed TimedTestbed(bool trec6, bool keep_documents, Raw& raw) {
  const double t = Now();
  corpus::Testbed bed(BenchTestbed(trec6, keep_documents));
  raw.Set("corpus.testbed_build_s", Now() - t);
  raw.Set("rss.testbed_mb", PeakRssMb());
  return bed;
}

// Times the public constructors the Metasearcher constructor runs, in its
// order, over one federation (traced run only). What the Metasearcher
// does beyond these is core.build_unattributed_s.
void TimeConstructorStages(const corpus::TopicHierarchy* hierarchy,
                           const Federation& fed, util::TraceContext parent,
                           Raw& raw) {
  std::vector<const summary::ContentSummary*> summaries;
  std::vector<size_t> sample_sizes;
  for (const sampling::SampleResult& s : fed.samples) {
    summaries.push_back(&s.summary);
    sample_sizes.push_back(s.sample_size);
  }
  double t = Now();
  const auto lap = [&t, &raw](const char* name) {
    const double now = Now();
    raw.Add(name, now - t);
    t = now;
  };
  std::unique_ptr<core::HierarchySummaries> hs;
  {
    Tracer::Scope span("bench_hierarchy_summaries", parent);
    hs = std::make_unique<core::HierarchySummaries>(hierarchy, summaries,
                                                    fed.classifications);
  }
  lap("core.hierarchy_summaries_s");
  std::unique_ptr<core::ShrinkageModel> model;
  {
    Tracer::Scope span("bench_shrinkage_build", parent);
    model = std::make_unique<core::ShrinkageModel>(
        hs.get(), sample_sizes, ServingOptions().shrinkage);
  }
  lap("core.shrinkage_build_s");
  std::vector<const summary::SummaryView*> plain_views(summaries.begin(),
                                                       summaries.end());
  std::vector<const summary::SummaryView*> shrunk_views;
  for (size_t i = 0; i < fed.samples.size(); ++i) {
    shrunk_views.push_back(&model->shrunk(i));
  }
  std::unique_ptr<selection::ScoringStatisticsCache> plain;
  {
    Tracer::Scope span("bench_plain_stats", parent);
    plain = std::make_unique<selection::ScoringStatisticsCache>(plain_views);
  }
  lap("selection.plain_stats_s");
  std::unique_ptr<selection::ScoringStatisticsCache> shrunk;
  {
    Tracer::Scope span("bench_shrunk_stats", parent);
    shrunk = std::make_unique<selection::ScoringStatisticsCache>(shrunk_views);
  }
  lap("selection.shrunk_stats_s");
}

// Runs the set-up kSetupRepeats times (sampling every database, then
// constructing a T — Metasearcher or LiveMetasearcher), keeps the last
// one, and records the times and the set-up counters. setup_s covers
// sampling plus construction; the traced run's stage timing sits between
// the two and is excluded from it.
template <typename T>
std::unique_ptr<T> SetUp(const corpus::Testbed& bed, bool traced, Raw& raw) {
  Tracer& tracer = Tracer::Global();
  tracer.set_enabled(traced);
  util::GlobalMetrics().ResetAll();
  const sampling::QbsSampler sampler = BenchSampler(bed);
  std::unique_ptr<T> built;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    built.reset();  // hold one federation at a time
    Tracer::Scope setup_span("bench_setup", tracer.StartTrace());
    const double t0 = Now();
    Federation fed;
    {
      Tracer::Scope span("bench_sample", setup_span.context());
      fed = SampleAll(bed, sampler);
    }
    const double t1 = Now();
    if (traced) {
      TimeConstructorStages(&bed.hierarchy(), fed, setup_span.context(), raw);
    }
    const double t2 = Now();
    {
      Tracer::Scope span("bench_metasearcher_build", setup_span.context());
      built = std::make_unique<T>(&bed.hierarchy(), std::move(fed.samples),
                                  std::move(fed.classifications),
                                  ServingOptions());
    }
    const double t3 = Now();
    raw.Add("setup_s", (t1 - t0) + (t3 - t2));
    raw.Add("sampling.sample_s", t1 - t0);
    raw.Add("core.metasearcher_build_s", t3 - t2);
  }
  ReadRegistry("setup.", raw);
  raw.Set("rss.setup_mb", PeakRssMb());
  tracer.set_enabled(false);
  return built;
}

// ------------------------------------------------------------ references --

// Serial answers for every (query, variant): the ranking hash each
// concurrent response must reproduce bit for bit, and its R_5.
struct Reference {
  std::vector<uint64_t> hash;  // [query * variants + variant]
  std::vector<double> rk5;     // same index; < 0 when the query has no
                               // relevant documents
  size_t variants = 0;
  bool all_ok = true;          // every answer had an OK status

  uint64_t at(size_t query, size_t variant) const {
    return hash[query * variants + variant];
  }
};

template <typename Relevant>
double Rk5(const std::vector<selection::RankedDatabase>& ranking,
           size_t num_databases, Relevant relevant) {
  std::vector<size_t> counts(num_databases);
  size_t total = 0;
  for (size_t db = 0; db < num_databases; ++db) {
    counts[db] = relevant(db);
    total += counts[db];
  }
  if (total == 0) return -1.0;
  return selection::RkScore(ranking, counts, 5);
}

// Answers every (query, variant) serially: `answer(q, v, trace)` runs one
// request, `relevant(q, db)` is r(q, D). Each request is the root of its
// own trace, named `root` (so the analyzer can tell reference, overhead
// and measured requests apart).
template <typename Answer, typename Relevant>
Reference BuildReference(size_t num_queries, size_t variants,
                         size_t num_databases, Answer answer,
                         Relevant relevant, const char* root) {
  Reference ref;
  ref.variants = variants;
  for (size_t q = 0; q < num_queries; ++q) {
    for (size_t v = 0; v < variants; ++v) {
      Tracer::Scope span(root, Tracer::Global().StartTrace());
      const core::Metasearcher::SelectionOutcome out =
          answer(q, v, span.context());
      if (!out.status.ok()) ref.all_ok = false;
      ref.hash.push_back(HashRanking(out.ranking));
      ref.rk5.push_back(Rk5(out.ranking, num_databases,
                            [&](size_t db) { return relevant(q, db); }));
    }
  }
  return ref;
}

// Mean R_5 over every answer with relevant documents, in all references.
double MeanRk5(const std::vector<Reference>& refs) {
  double sum = 0.0;
  size_t n = 0;
  for (const Reference& ref : refs) {
    for (double v : ref.rk5) {
      if (v < 0.0) continue;
      sum += v;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

// Times `pass` untraced and traced, kOverheadPasses times each.
template <typename Pass>
void MeasureTraceOverhead(Pass pass, Raw& raw) {
  Tracer& tracer = Tracer::Global();
  for (size_t i = 0; i < kOverheadPasses; ++i) {
    for (const bool traced : {false, true}) {
      tracer.set_enabled(traced);
      const double t = Now();
      pass();
      raw.Add(traced ? "trace.traced_pass_s" : "trace.untraced_pass_s",
              Now() - t);
    }
  }
  tracer.set_enabled(false);
}

// ----------------------------------------------------------- closed loop --

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

// One closed-loop response; hash 0 marks a non-OK status.
struct Response {
  uint32_t epoch, query, scorer;
  uint64_t hash;
};

struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // completion time, from the serve start
  std::vector<Response> responses;
};

// Runs `clients` threads from `start`. Each cycles through its own seeded
// RequestCycle while `more()` says so, timing `request(q, s, trace)`,
// which returns the Response, and counts completions in `completed`.
template <typename More, typename Request>
std::vector<ClientLog> RunClients(const RunConfig& cfg, size_t clients,
                                  size_t num_queries, double start,
                                  std::atomic<size_t>& completed, More more,
                                  Request request) {
  std::vector<ClientLog> logs(clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      util::Rng rng(Mix(cfg.seed, 100 + c));
      const auto cycle = RequestCycle(num_queries, kNumScorers, rng);
      ClientLog& log = logs[c];
      for (size_t i = 0; more(); ++i) {
        const auto [q, s] = cycle[i % cycle.size()];
        Tracer::Scope root("bench_request", Tracer::Global().StartTrace());
        const double t0 = Now();
        log.responses.push_back(request(q, s, root.context()));
        const double t1 = Now();
        log.latency_ms.push_back((t1 - t0) * 1e3);
        log.done_s.push_back(t1 - start);
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return logs;
}

Response MakeResponse(uint64_t epoch, size_t q, size_t s,
                      const core::Metasearcher::SelectionOutcome& out) {
  return Response{static_cast<uint32_t>(epoch), static_cast<uint32_t>(q),
                  static_cast<uint32_t>(s),
                  out.status.ok() ? HashRanking(out.ranking) : 0};
}

// Checks every response against the serial reference of its epoch and
// records the serve phase. The wall time runs to the last completion.
void RecordServe(const std::vector<ClientLog>& logs,
                 const std::vector<Reference>& refs, double cpu_s,
                 size_t threads, Raw& raw) {
  size_t requests = 0, wrong = 0, not_ok = 0;
  double wall = 0.0;
  for (const ClientLog& log : logs) {
    for (const Response& r : log.responses) {
      ++requests;
      if (r.hash == 0) {
        ++not_ok;
      } else if (r.epoch >= refs.size() ||
                 refs[r.epoch].at(r.query, r.scorer) != r.hash) {
        ++wrong;
      }
    }
    for (double ms : log.latency_ms) raw.Add("latency_ms", ms);
    for (double t : log.done_s) {
      raw.Add("done_s", t);
      wall = std::max(wall, t);
    }
  }
  bool refs_ok = true;
  for (const Reference& ref : refs) refs_ok = refs_ok && ref.all_ok;
  raw.Set("reference.ok", refs_ok ? 1.0 : 0.0);
  raw.Set("rk5", MeanRk5(refs));
  raw.Set("serve.attempted", static_cast<double>(requests));
  raw.Set("serve.wrong", static_cast<double>(wrong));
  raw.Set("serve.not_ok", static_cast<double>(not_ok));
  raw.Set("serve.served", static_cast<double>(requests - not_ok));
  raw.Set("serve.served_full", static_cast<double>(requests - not_ok));
  raw.Set("serve.wall_s", wall);
  raw.Set("serve.cpu_s", cpu_s);
  raw.Set("serve.threads", static_cast<double>(threads));
}

// ------------------------------------------------------------- workloads --

// trec4_adaptive: closed loop of kAdaptiveClients threads over one shared
// Metasearcher for cfg.seconds; every request is adaptive.
void RunAdaptive(const RunConfig& cfg, Raw& raw) {
  const corpus::Testbed bed = TimedTestbed(/*trec6=*/false, false, raw);
  const std::vector<selection::Query> queries = AnalyzedQueries(bed);
  const Scorers scorers;
  const std::unique_ptr<core::Metasearcher> meta =
      SetUp<core::Metasearcher>(bed, cfg.traced, raw);

  const auto answer = [&](size_t q, size_t s, util::TraceContext trace) {
    return meta->SelectDatabases(queries[q], *scorers.all[s],
                                 core::SummaryMode::kAdaptiveShrinkage,
                                 nullptr, trace);
  };
  const auto reference = [&](const char* root) {
    return BuildReference(
        queries.size(), kNumScorers, meta->num_databases(), answer,
        [&bed](size_t q, size_t db) { return bed.CountRelevant(q, db); },
        root);
  };
  // The serial pass warms the caches and is what responses must match.
  const std::vector<Reference> refs = {reference("bench_reference_request")};
  if (cfg.traced) {
    MeasureTraceOverhead([&] { (void)reference("bench_overhead_request"); },
                         raw);
  }

  util::GlobalMetrics().ResetAll();
  Tracer::Global().set_enabled(cfg.traced);
  std::atomic<size_t> issued{0}, completed{0};
  const size_t cap = cfg.traced ? kTracedRequestCap : SIZE_MAX;
  const double cpu0 = ProcessCpuSeconds();
  const double start = Now();
  const double end = start + cfg.seconds;
  const std::vector<ClientLog> logs = RunClients(
      cfg, kAdaptiveClients, queries.size(), start, completed,
      [&] { return Now() < end && issued.fetch_add(1) < cap; },
      [&](size_t q, size_t s, util::TraceContext trace) {
        return MakeResponse(0, q, s, answer(q, s, trace));
      });
  Tracer::Global().set_enabled(false);
  RecordServe(logs, refs, ProcessCpuSeconds() - cpu0, kAdaptiveClients, raw);
  ReadRegistry("serve.", raw);
}

// trec6_broker: one generator thread submits a seeded open-loop arrival
// schedule at kBrokerOverload x the modeled sustainable rate, as fast as
// it can, in kBrokerRounds rounds that each end with Drain.
void RunBroker(const RunConfig& cfg, Raw& raw) {
  Tracer& tracer = Tracer::Global();
  const corpus::Testbed bed = TimedTestbed(/*trec6=*/true, false, raw);
  const std::vector<selection::Query> queries = AnalyzedQueries(bed);
  const selection::CoriScorer cori;
  const std::unique_ptr<core::Metasearcher> meta =
      SetUp<core::Metasearcher>(bed, cfg.traced, raw);

  broker::BrokerOptions options;
  options.num_workers = kBrokerWorkers;
  // Variant 0 = full service level, 1 = degraded.
  const core::SummaryMode modes[2] = {options.full_mode,
                                      options.degraded_mode};
  const auto reference = [&](const char* root) {
    return BuildReference(
        queries.size(), 2, meta->num_databases(),
        [&](size_t q, size_t v, util::TraceContext trace) {
          return meta->SelectDatabases(queries[q], cori, modes[v], nullptr,
                                       trace);
        },
        [&bed](size_t q, size_t db) { return bed.CountRelevant(q, db); },
        root);
  };
  const Reference ref = reference("bench_reference_request");
  raw.Set("reference.ok", ref.all_ok ? 1.0 : 0.0);

  const size_t n = meta->num_databases();
  const size_t n_eval = n - meta->num_degraded();
  const double adaptive_cost_ms =
      static_cast<double>(n_eval) * options.costs.adaptive_evaluation_ms +
      static_cast<double>(n) * options.costs.score_ms;
  const double sustainable_qps =
      static_cast<double>(kBrokerWorkers) * 1000.0 / adaptive_cost_ms;
  broker::OpenLoopOptions load;
  load.arrival_rate_qps = kBrokerOverload * sustainable_qps;
  load.slow_rate = kBrokerSlowRate;
  load.slow_factor = kBrokerSlowFactor;
  raw.Set("broker.arrival_rate_qps", load.arrival_rate_qps);

  // Untimed warm-up on its own broker and arrival stream: thread start-up,
  // allocator and cache warm-up stay out of the measurement.
  {
    broker::OpenLoopOptions warm = load;
    warm.seed = Mix(cfg.seed, 7);
    broker::QueryBroker warm_broker(meta.get(), &cori, options);
    broker::OpenLoopGenerator generator(warm, queries.size());
    for (size_t i = 0; i < kBrokerWarmupRequests; ++i) {
      const broker::Arrival a = generator.Next();
      warm_broker.Submit(queries[a.query_index], a.arrival_ms,
                         a.service_inflation);
    }
    warm_broker.Drain();
  }
  if (cfg.traced) {
    MeasureTraceOverhead([&] { (void)reference("bench_overhead_request"); },
                         raw);
  }

  size_t requests = static_cast<size_t>(
      cfg.seconds * static_cast<double>(kBrokerRequestsPerSecond));
  if (cfg.traced) requests = std::min(requests, kTracedRequestCap);
  load.seed = Mix(cfg.seed, 1);
  broker::OpenLoopGenerator generator(load, queries.size());
  std::vector<size_t> query_of;
  query_of.reserve(requests);

  util::GlobalMetrics().ResetAll();
  tracer.set_enabled(cfg.traced);
  broker::QueryBroker qb(meta.get(), &cori, options);
  const double cpu0 = ProcessCpuSeconds();
  const double start = Now();
  double drain_s = 0.0;
  for (size_t round = 0; round < kBrokerRounds; ++round) {
    const size_t first = requests * round / kBrokerRounds;
    const size_t last = requests * (round + 1) / kBrokerRounds;
    const double t0 = Now();
    for (size_t i = first; i < last; ++i) {
      const broker::Arrival a = generator.Next();
      query_of.push_back(a.query_index);
      qb.Submit(queries[a.query_index], a.arrival_ms, a.service_inflation);
    }
    const double t1 = Now();
    {
      Tracer::Scope span("bench_drain", tracer.StartTrace());
      qb.Drain();
    }
    const double t2 = Now();
    drain_s += t2 - t1;
    size_t served = 0;
    const std::vector<broker::RequestResult>& so_far = qb.results();
    for (size_t i = first; i < last; ++i) served += so_far[i].served();
    raw.Add("broker.round_goodput_qps",
            static_cast<double>(served) / (t2 - t0));
  }
  const double wall = Now() - start;
  const double cpu = ProcessCpuSeconds() - cpu0;
  tracer.set_enabled(false);

  const broker::BrokerStats stats = qb.ComputeStats();
  const std::vector<broker::RequestResult>& results = qb.results();
  size_t wrong = 0;
  double rk5_sum = 0.0;
  size_t rk5_n = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const broker::RequestResult& r = results[i];
    if (!r.served()) continue;
    const size_t v = r.disposition == broker::Disposition::kServedFull ? 0 : 1;
    if (r.ranking_hash != ref.at(query_of[i], v)) ++wrong;
    const double rk5 = ref.rk5[query_of[i] * 2 + v];
    if (rk5 >= 0.0) {
      rk5_sum += rk5;
      ++rk5_n;
    }
  }
  raw.Set("rk5", rk5_n > 0 ? rk5_sum / static_cast<double>(rk5_n) : 0.0);
  raw.Set("serve.attempted", static_cast<double>(requests));
  raw.Set("serve.results", static_cast<double>(results.size()));
  raw.Set("serve.wrong", static_cast<double>(wrong));
  raw.Set("serve.not_ok", 0.0);
  raw.Set("serve.served", static_cast<double>(stats.served()));
  raw.Set("serve.served_full", static_cast<double>(stats.served_full));
  raw.Set("serve.wall_s", wall);
  raw.Set("serve.cpu_s", cpu);
  raw.Set("serve.threads", static_cast<double>(kBrokerWorkers + 1));
  raw.Set("broker.drain_s", drain_s);
  raw.Set("stats.submitted", static_cast<double>(stats.submitted));
  raw.Set("stats.served_full", static_cast<double>(stats.served_full));
  raw.Set("stats.served_degraded", static_cast<double>(stats.served_degraded));
  raw.Set("stats.shed_queue_full", static_cast<double>(stats.shed_queue_full));
  raw.Set("stats.shed_predicted_miss",
          static_cast<double>(stats.shed_predicted_miss));
  raw.Set("stats.expired_in_queue",
          static_cast<double>(stats.expired_in_queue));
  raw.Set("stats.expired_executing",
          static_cast<double>(stats.expired_executing));
  raw.Set("stats.cancelled", static_cast<double>(stats.cancelled));
  raw.Set("stats.resolved", static_cast<double>(stats.resolved()));
  ReadRegistry("serve.", raw);
}

// trec4_churn: kChurnReaders adaptive readers on a LiveMetasearcher while
// one writer runs kChurnRefreshes refresh cycles (advance the corpus one
// epoch, re-probe the fast-drifting databases, ApplyRefresh, then a serial
// quality pass on the published epoch). Refresh i starts once the readers
// have completed i * N / kChurnRefreshes of their N requests.
void RunChurn(const RunConfig& cfg, Raw& raw) {
  const corpus::Testbed bed = TimedTestbed(/*trec6=*/false, true, raw);
  const std::vector<selection::Query> queries = AnalyzedQueries(bed);
  const Scorers scorers;
  const std::unique_ptr<core::LiveMetasearcher> live =
      SetUp<core::LiveMetasearcher>(bed, cfg.traced, raw);

  // Drift classes: 20% fast (re-probed every refresh), 20% slow, 60%
  // static. Every changed database's index is rebuilt each epoch (the
  // quality pass needs its relevance counts); keeping that input
  // generation small keeps it from crowding the readers.
  corpus::ChurnOptions churn_options;
  churn_options.seed = Mix(cfg.seed, 3);
  churn_options.static_fraction = 0.6;
  churn_options.fast_fraction = 0.2;
  corpus::ChurnTestbed churn(&bed, churn_options);
  std::vector<size_t> reprobe_set;
  for (size_t db = 0; db < churn.num_databases(); ++db) {
    if (churn.drift_class(db) == corpus::DriftClass::kFast) {
      reprobe_set.push_back(db);
    }
  }
  raw.Set("churn.reprobe_databases", static_cast<double>(reprobe_set.size()));
  const sampling::QbsSampler sampler = BenchSampler(bed);

  // The serial quality pass on the current epoch, scored against the
  // current corpus. refs[e] is epoch e's.
  const auto quality_pass = [&](const char* root) {
    const std::shared_ptr<const core::Metasearcher> snap = live->Snapshot();
    return BuildReference(
        queries.size(), kNumScorers, snap->num_databases(),
        [&](size_t q, size_t s, util::TraceContext trace) {
          return snap->SelectDatabases(queries[q], *scorers.all[s],
                                       core::SummaryMode::kAdaptiveShrinkage,
                                       nullptr, trace);
        },
        [&churn](size_t q, size_t db) { return churn.CountRelevant(q, db); },
        root);
  };
  std::vector<Reference> refs = {quality_pass("bench_reference_request")};
  if (cfg.traced) {
    MeasureTraceOverhead(
        [&] { (void)quality_pass("bench_overhead_request"); }, raw);
  }

  size_t total = static_cast<size_t>(
      cfg.seconds * static_cast<double>(kChurnRequestsPerSecond));
  if (cfg.traced) total = std::min(total, kTracedRequestCap);
  total = std::max(total, kChurnRefreshes);
  std::atomic<size_t> claimed{0}, completed{0};
  std::atomic<bool> writer_done{false};
  bool writer_ok = true;

  util::GlobalMetrics().ResetAll();
  Tracer::Global().set_enabled(cfg.traced);
  const double cpu0 = ProcessCpuSeconds();
  const double start = Now();
  std::thread writer([&] {
    util::Rng probe_rng(Mix(cfg.seed, 4));
    for (size_t i = 0; i < kChurnRefreshes; ++i) {
      while (completed.load() < i * total / kChurnRefreshes) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      Tracer::Scope refresh("bench_refresh", Tracer::Global().StartTrace());
      const double t0 = Now();
      {
        Tracer::Scope span("bench_churn_epoch", refresh.context());
        for (size_t db : churn.AdvanceEpoch()) {
          (void)churn.live_database(db);  // rebuild the changed index now
        }
      }
      const double t1 = Now();
      std::vector<core::SummaryUpdate> updates;
      {
        Tracer::Scope span("bench_reprobe", refresh.context());
        for (size_t db : reprobe_set) {
          core::SummaryUpdate u;
          u.database = db;
          util::Rng db_rng = probe_rng.Fork();
          u.sample = sampler.Sample(churn.live_database(db), db_rng);
          u.classification = bed.directory_category_of(db);
          updates.push_back(std::move(u));
        }
      }
      const double t2 = Now();
      util::Status status;
      {
        Tracer::Scope span("bench_apply_refresh", refresh.context());
        status = live->ApplyRefresh(std::move(updates));
      }
      const double t3 = Now();
      if (!status.ok()) {
        std::fprintf(stderr, "ApplyRefresh failed: %s\n",
                     status.message().c_str());
        writer_ok = false;
        writer_done.store(true);
        return;
      }
      raw.Add("corpus.churn_epoch_s", t1 - t0);
      raw.Add("sampling.reprobe_s", t2 - t1);
      raw.Add("core.apply_refresh_s", t3 - t2);
      raw.Add("core.refresh_s", t3 - t1);
      if (i + 1 == kChurnRefreshes) {
        raw.Set("churn.last_publish_s", t3 - start);
        writer_done.store(true);
      }
      refs.push_back(quality_pass("bench_quality_request"));
    }
  });
  // Only the writer touches `churn`, `refs` and `raw` until it is joined.
  // Readers serve at least N requests, then on until the last publish.
  const std::vector<ClientLog> logs = RunClients(
      cfg, kChurnReaders, queries.size(), start, completed,
      [&] { return claimed.fetch_add(1) < total || !writer_done.load(); },
      [&](size_t q, size_t s, util::TraceContext trace) {
        const std::shared_ptr<const core::Metasearcher> snap =
            live->Snapshot();
        return MakeResponse(
            snap->epoch(), q, s,
            snap->SelectDatabases(queries[q], *scorers.all[s],
                                  core::SummaryMode::kAdaptiveShrinkage,
                                  nullptr, trace));
      });
  writer.join();
  Tracer::Global().set_enabled(false);
  // The readers' window (to their last completion) is the serve phase;
  // record how long the writer's last quality pass ran past it.
  RecordServe(logs, refs, ProcessCpuSeconds() - cpu0, kChurnReaders + 1, raw);
  ReadRegistry("serve.", raw);
  raw.Set("churn.writer_tail_s",
          std::max(0.0, Now() - start - raw.values["serve.wall_s"]));
  if (!writer_ok) raw.Set("reference.ok", 0.0);
  raw.Set("churn.published_epochs", static_cast<double>(live->epoch()));
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string out_path, trace_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (flag == "--trace") {
      cfg.traced = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--trace-out") {
      trace_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (out_path.empty() || (cfg.traced && trace_path.empty()) ||
      cfg.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--out raw.json [--trace-out trace.json]\n",
                 argv[0]);
    return 2;
  }
  Tracer::Global().set_capacity(kTraceCapacity);

  Raw raw;
  if (cfg.workload == "trec4_adaptive") {
    RunAdaptive(cfg, raw);
  } else if (cfg.workload == "trec6_broker") {
    RunBroker(cfg, raw);
  } else if (cfg.workload == "trec4_churn") {
    RunChurn(cfg, raw);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", cfg.workload.c_str());
    return 2;
  }
  raw.Set("peak_rss_mb", PeakRssMb());
  if (cfg.traced) {
    raw.Set("trace.dropped", static_cast<double>(Tracer::Global().dropped()));
    std::ofstream(trace_path) << Tracer::Global().ToJson(0);
  }
  std::ofstream out(out_path);
  out << raw.ToJson() << "\n";
  return out.good() ? 0 : 1;
}
