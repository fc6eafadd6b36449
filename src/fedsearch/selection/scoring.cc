#include "fedsearch/selection/scoring.h"

#include "fedsearch/util/check.h"

namespace fedsearch::selection {

// The delta-protocol defaults abort rather than return a silently-wrong
// value: callers must check supports_delta_scoring() first, and a scorer
// that opts in must override the whole protocol.
double ScoringFunction::CombineInit(const Query&, const summary::SummaryView&,
                                    const ScoringContext&) const {
  FEDSEARCH_CHECK(false) << " " << name()
                         << " does not implement delta scoring";
  return 0.0;
}

double ScoringFunction::TermContribution(const Query&, size_t,
                                         const summary::SummaryView&,
                                         const ScoringContext&) const {
  FEDSEARCH_CHECK(false) << " " << name()
                         << " does not implement delta scoring";
  return 0.0;
}

double ScoringFunction::TermContributionWithDf(const Query&, size_t, double,
                                               const summary::SummaryView&,
                                               const ScoringContext&) const {
  FEDSEARCH_CHECK(false) << " " << name()
                         << " does not implement delta scoring";
  return 0.0;
}

void ScoringFunction::TermContributionTable(const Query& query,
                                            size_t term_index,
                                            const summary::SummaryView& db,
                                            const ScoringContext& context,
                                            const double* dfs, size_t count,
                                            double* out) const {
  for (size_t g = 0; g < count; ++g) {
    out[g] = TermContributionWithDf(query, term_index, dfs[g], db, context);
  }
}

double ScoringFunction::FinalizeScore(const Query&, double combined) const {
  return combined;
}

DeltaScoreState ScoringFunction::PrepareScoreState(
    const Query& query, const summary::SummaryView& db,
    const ScoringContext& context) const {
  FEDSEARCH_CHECK(supports_delta_scoring())
      << " " << name() << " does not implement delta scoring";
  return DeltaScoreState(*this, query, db, context);
}

void PrepareContextForQuery(const Query& query, ScoringContext& context) {
  context.cached_cf.clear();
  double total_cw = 0.0;
  for (const summary::SummaryView* s : context.ranked_summaries) {
    total_cw += s->total_tokens();
  }
  context.cached_mean_cw =
      context.ranked_summaries.empty()
          ? 1.0
          : total_cw / static_cast<double>(context.ranked_summaries.size());
  if (context.cached_mean_cw <= 0.0) context.cached_mean_cw = 1.0;

  for (const std::string& w : query.terms) {
    if (context.cached_cf.count(w)) continue;
    size_t cf = 0;
    for (const summary::SummaryView* s : context.ranked_summaries) {
      if (s->ContainsRounded(w)) ++cf;
    }
    context.cached_cf.emplace(w, cf);
  }
  context.has_cached_statistics = true;
}

ScoringStatisticsCache::ScoringStatisticsCache(
    const std::vector<const summary::SummaryView*>& summaries)
    : num_summaries_(summaries.size()) {
  double total_cw = 0.0;
  for (const summary::SummaryView* s : summaries) {
    total_cw += s->total_tokens();
  }
  mean_cw_ = summaries.empty()
                 ? 1.0
                 : total_cw / static_cast<double>(summaries.size());
  if (mean_cw_ <= 0.0) mean_cw_ = 1.0;

  for (const summary::SummaryView* s : summaries) {
    // Presence from the enumerated df: ForEachWord emits exactly
    // DocFrequency's value, so this is the query-time ContainsRounded
    // (CORI's trimmed cf(w) for shrunk summaries) without a second lookup.
    const double n = s->num_documents();
    s->ForEachWord(
        [&](const std::string& word, const summary::WordStats& stats) {
          if (summary::CountsAsPresent(stats.df, n)) ++cf_[word];
        });
  }
}

ScoringStatisticsCache ScoringStatisticsCache::Rebuilt(
    const ScoringStatisticsCache& prior,
    const std::vector<const summary::SummaryView*>& summaries,
    const std::vector<const summary::SummaryView*>& prior_summaries,
    const std::vector<size_t>& changed) {
  FEDSEARCH_CHECK(summaries.size() == prior_summaries.size())
      << " summary sets differ in size: " << summaries.size() << " vs "
      << prior_summaries.size();
  FEDSEARCH_CHECK(prior.num_summaries_ == prior_summaries.size())
      << " prior cache covers " << prior.num_summaries_
      << " summaries, not " << prior_summaries.size();
  ScoringStatisticsCache next;
  next.num_summaries_ = summaries.size();
  next.cf_ = prior.cf_;
  for (size_t i : changed) {
    FEDSEARCH_CHECK(i < summaries.size())
        << " changed index " << i << " of " << summaries.size();
    // Retract the old summary's contributions, then add the new one's.
    // Integer counts, so the result is order-independent and exactly what
    // a fresh scan over `summaries` would produce; entries reaching 0 are
    // erased so the maps (and vocabulary_size()) match the scan exactly.
    const double old_n = prior_summaries[i]->num_documents();
    prior_summaries[i]->ForEachWord(
        [&](const std::string& word, const summary::WordStats& stats) {
          if (!summary::CountsAsPresent(stats.df, old_n)) return;
          auto it = next.cf_.find(word);
          FEDSEARCH_DCHECK(it != next.cf_.end() && it->second > 0)
              << " cf underflow for word retracted by database " << i;
          if (--it->second == 0) next.cf_.erase(it);
        });
    const double new_n = summaries[i]->num_documents();
    summaries[i]->ForEachWord(
        [&](const std::string& word, const summary::WordStats& stats) {
          if (summary::CountsAsPresent(stats.df, new_n)) ++next.cf_[word];
        });
  }
  // Index-order full recompute, NOT an incremental ± of the changed
  // databases' totals: float addition is non-associative, so only the
  // scanning constructor's exact reduction order reproduces its bits.
  double total_cw = 0.0;
  for (const summary::SummaryView* s : summaries) {
    total_cw += s->total_tokens();
  }
  next.mean_cw_ = summaries.empty()
                      ? 1.0
                      : total_cw / static_cast<double>(summaries.size());
  if (next.mean_cw_ <= 0.0) next.mean_cw_ = 1.0;
  return next;
}

size_t ScoringStatisticsCache::CollectionFrequency(
    const std::string& word) const {
  static util::Counter& global_hits =
      util::GlobalMetrics().counter("scoring_stats_cache.hits");
  static util::Counter& global_misses =
      util::GlobalMetrics().counter("scoring_stats_cache.misses");
  auto it = cf_.find(word);
  if (it != cf_.end()) {
    stats_cells_->hits.Add();
    global_hits.Add();
    return it->second;
  }
  stats_cells_->misses.Add();
  global_misses.Add();
  return 0;
}

void ScoringStatisticsCache::FillContext(
    const Query& query, ScoringContext& context,
    const util::TraceContext& trace) const {
  static util::Counter& global_fills =
      util::GlobalMetrics().counter("scoring_stats_cache.fills");
  util::Tracer::Scope fill_span("statistics_cache_fill", trace);
  fill_span.AttrUint("terms", query.terms.size());
  stats_cells_->fills.Add();
  global_fills.Add();
  context.cached_cf.clear();
  context.cached_mean_cw = mean_cw_;
  for (const std::string& w : query.terms) {
    if (context.cached_cf.count(w)) continue;
    context.cached_cf.emplace(w, CollectionFrequency(w));
  }
  context.has_cached_statistics = true;
}

ScoringStatisticsCache::Stats ScoringStatisticsCache::stats() const {
  Stats s;
  s.hits = stats_cells_->hits.value();
  s.misses = stats_cells_->misses.value();
  s.fills = stats_cells_->fills.value();
  return s;
}

}  // namespace fedsearch::selection
