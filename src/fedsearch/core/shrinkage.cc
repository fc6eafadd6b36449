#include "fedsearch/core/shrinkage.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "fedsearch/util/check.h"
#include "fedsearch/util/metrics.h"
#include "fedsearch/util/trace.h"

namespace fedsearch::core {

ShrunkSummary::ShrunkSummary(
    std::vector<const SubtractedSummary*> components,
    std::vector<double> lambdas, double uniform_probability)
    : components_(std::move(components)),
      lambdas_(std::move(lambdas)),
      uniform_probability_(uniform_probability) {
  // Definition 4 mixture shape: one λ for C0 plus one per component, all
  // on the probability simplex. A violation here poisons every score this
  // summary ever produces, so it is checked in all builds.
  FEDSEARCH_CHECK(!components_.empty());
  FEDSEARCH_CHECK(lambdas_.size() == components_.size() + 1)
      << " got " << lambdas_.size() << " lambdas for "
      << components_.size() << " components";
  double sum = 0.0;
  for (double l : lambdas_) {
    FEDSEARCH_CHECK(l >= 0.0 && l <= 1.0 + 1e-9) << " lambda " << l;
    sum += l;
  }
  FEDSEARCH_CHECK(std::fabs(sum - 1.0) < 1e-6)
      << " lambdas sum to " << sum << " after EM";
  FEDSEARCH_CHECK(uniform_probability_ >= 0.0 &&
                  uniform_probability_ <= 1.0);
  for (const SubtractedSummary* c : components_) {
    FEDSEARCH_CHECK(&c->vocabulary() == &components_.back()->vocabulary())
        << " components interned over different vocabularies";
  }
}

double ShrunkSummary::num_documents() const {
  return components_.back()->num_documents();
}

double ShrunkSummary::total_tokens() const {
  return components_.back()->total_tokens();
}

double ShrunkSummary::MixtureProbDoc(const std::string& word) const {
  double p = lambdas_[0] * uniform_probability_;
  for (size_t i = 0; i < components_.size(); ++i) {
    p += lambdas_[i + 1] * components_[i]->ProbDoc(word);
  }
  FEDSEARCH_DCHECK(p >= 0.0 && std::isfinite(p))
      << " mixture doc probability " << p << " for " << word;
  return std::min(1.0, p);
}

double ShrunkSummary::MixtureProbToken(const std::string& word) const {
  double p = lambdas_[0] * uniform_probability_;
  for (size_t i = 0; i < components_.size(); ++i) {
    p += lambdas_[i + 1] * components_[i]->ProbToken(word);
  }
  FEDSEARCH_DCHECK(p >= 0.0 && std::isfinite(p))
      << " mixture token probability " << p << " for " << word;
  return std::min(1.0, p);
}

double ShrunkSummary::DocFrequency(const std::string& word) const {
  return MixtureProbDoc(word) * num_documents();
}

double ShrunkSummary::TokenFrequency(const std::string& word) const {
  return MixtureProbToken(word) * total_tokens();
}

void ShrunkSummary::ForEachWord(
    const std::function<void(const std::string&, const summary::WordStats&)>&
        fn) const {
  const std::vector<const std::string*>& words =
      components_.back()->vocabulary();
  // Per-call scratch, so concurrent callers never share it. Each word's
  // sums start at λ0·u and take the components in order, exactly as
  // MixtureProbDoc/MixtureProbToken do; a component lacking the word adds
  // λ·0 there, which leaves the sum unchanged.
  const double uniform = lambdas_[0] * uniform_probability_;
  std::vector<double> doc(words.size(), uniform);
  std::vector<double> token(words.size(), uniform);
  std::vector<uint8_t> emitted(words.size(), 0);
  for (size_t i = 0; i < components_.size(); ++i) {
    const double lambda = lambdas_[i + 1];
    const double n = components_[i]->num_documents();
    const double tokens = components_[i]->total_tokens();
    if (lambda <= 0.0 || n <= 0.0) continue;
    components_[i]->ForEachId(
        [&](uint32_t id, const summary::WordStats& stats) {
          doc[id] += lambda * summary::DocProbability(stats.df, n);
          if (tokens > 0.0) {
            token[id] += lambda * std::min(1.0, stats.ctf / tokens);
          }
          emitted[id] = 1;
        });
  }
  const double n = num_documents();
  const double tokens = total_tokens();
  for (size_t id = 0; id < words.size(); ++id) {
    if (emitted[id] == 0) continue;
    fn(*words[id], summary::WordStats{std::min(1.0, doc[id]) * n,
                                      std::min(1.0, token[id]) * tokens});
  }
}

size_t ShrunkSummary::vocabulary_size() const {
  std::vector<uint8_t> seen(components_.back()->vocabulary().size(), 0);
  for (const SubtractedSummary* component : components_) {
    component->ForEachId(
        [&](uint32_t id, const summary::WordStats&) { seen[id] = 1; });
  }
  return static_cast<size_t>(std::count(seen.begin(), seen.end(), 1));
}

std::vector<double> FitMixtureWeights(
    const summary::ContentSummary& database_summary,
    const std::vector<const summary::SummaryView*>& categories,
    double uniform_probability, size_t sample_size,
    const ShrinkageOptions& options) {
  static util::Counter& fits = util::GlobalMetrics().counter("em.fits");
  static util::Counter& converged =
      util::GlobalMetrics().counter("em.converged");
  static util::Histogram& iterations_hist =
      util::GlobalMetrics().histogram("em.iterations");
  static util::Histogram& delta_hist =
      util::GlobalMetrics().histogram("em.final_max_delta_e9");
  static util::Histogram& fit_ns =
      util::GlobalMetrics().histogram("em.fit_ns");
  FEDSEARCH_TRACE_SPAN("em_fit");
  util::ScopedTimer fit_timer(fit_ns);
  fits.Add();

  const size_t m = categories.size();
  const size_t k = m + 2;  // uniform + categories + database
  const double deleted_mass =
      sample_size > 0 ? 1.0 / static_cast<double>(sample_size) : 0.0;

  // Precompute the per-word component probabilities once; the EM loop then
  // touches only this dense matrix. Rows: words of S(D); columns:
  // C0, C1..Cm, D. The database column uses the deleted (cross-validated)
  // estimate, and each word carries its sample document frequency as
  // observation weight — see the header comment.
  std::vector<double> probs;  // row-major, k columns
  std::vector<double> weights;
  size_t rows = 0;
  database_summary.ForEachWord(
      [&](const std::string& word, const summary::WordStats&) {
        probs.push_back(uniform_probability);
        for (const summary::SummaryView* c : categories) {
          probs.push_back(c->ProbDoc(word));
        }
        const double p_db = database_summary.ProbDoc(word);
        probs.push_back(std::max(0.0, p_db - deleted_mass));
        weights.push_back(
            sample_size > 0
                ? std::max(1.0, p_db * static_cast<double>(sample_size))
                : 1.0);
        ++rows;
      });

  std::vector<double> lambdas(k, 1.0 / static_cast<double>(k));
  if (rows == 0) return lambdas;

  std::vector<double> beta(k, 0.0);
  size_t iters_run = 0;
  double last_max_delta = 0.0;
  bool did_converge = false;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++iters_run;
    std::fill(beta.begin(), beta.end(), 0.0);
    // Expectation: β_i = Σ_w weight_w · λ_i p̂(w|C_i) / p̂_R(w|D).
    for (size_t r = 0; r < rows; ++r) {
      const double* row = &probs[r * k];
      double p_r = 0.0;
      for (size_t i = 0; i < k; ++i) p_r += lambdas[i] * row[i];
      if (p_r <= 0.0) continue;
      for (size_t i = 0; i < k; ++i) {
        beta[i] += weights[r] * lambdas[i] * row[i] / p_r;
      }
    }
    // Maximization: λ_i = β_i / Σ_j β_j.
    double total = 0.0;
    for (double b : beta) total += b;
    if (total <= 0.0) break;
    double max_delta = 0.0;
    for (size_t i = 0; i < k; ++i) {
      const double next = beta[i] / total;
      max_delta = std::max(max_delta, std::fabs(next - lambdas[i]));
      lambdas[i] = next;
    }
    last_max_delta = max_delta;
    if (max_delta < options.epsilon) {
      did_converge = true;
      break;
    }
  }
  iterations_hist.Record(iters_run);
  // λ deltas are sub-1.0 doubles; record in integer nano-units so the
  // log-linear buckets resolve the convergence tail.
  delta_hist.Record(static_cast<uint64_t>(last_max_delta * 1e9));
  if (did_converge) converged.Add();
  // Figure 2 post-condition: the M-step renormalizes every iteration, so
  // the returned weights must still lie on the simplex.
  double sum = 0.0;
  for (double l : lambdas) {
    FEDSEARCH_DCHECK(l >= 0.0 && l <= 1.0 + 1e-9) << " lambda " << l;
    sum += l;
  }
  FEDSEARCH_DCHECK(std::fabs(sum - 1.0) < 1e-6)
      << " EM weights sum to " << sum;
  return lambdas;
}

ShrinkageModel::ShrinkageModel(const HierarchySummaries* hierarchy_summaries,
                               std::vector<size_t> sample_sizes,
                               const ShrinkageOptions& options)
    : summaries_(hierarchy_summaries) {
  static util::Histogram& build_ns =
      util::GlobalMetrics().histogram("shrinkage.model_build_ns");
  FEDSEARCH_TRACE_SPAN("shrinkage_model_build");
  util::ScopedTimer build_timer(build_ns);
  const corpus::TopicHierarchy& h = summaries_->hierarchy();
  const size_t n = summaries_->num_databases();
  shrunk_.reserve(n);
  paths_.reserve(n);
  for (size_t db = 0; db < n; ++db) {
    const corpus::CategoryId category = summaries_->classification(db);
    std::vector<corpus::CategoryId> path = h.PathFromRoot(category);

    // Level components, each exclusive of the data the next level uses
    // (Definition 4's footnote): aggregate(Ci) − aggregate(Ci+1), and at
    // the classification node, aggregate(Cm) − S(D).
    std::vector<const SubtractedSummary*> components;
    components.reserve(path.size() + 1);
    for (size_t i = 0; i < path.size(); ++i) {
      if (i + 1 < path.size()) {
        components.push_back(
            &summaries_->ExclusiveOfChild(path[i], path[i + 1]));
      } else {
        components.push_back(&summaries_->ExclusiveOfDatabase(path[i], db));
      }
    }
    components.push_back(&summaries_->DatabaseView(db));

    const size_t sample_size =
        db < sample_sizes.size() ? sample_sizes[db] : 0;
    std::vector<double> lambdas =
        FitMixtureWeights(summaries_->database_summary(db),
                          {components.begin(), components.end() - 1},
                          summaries_->uniform_probability(), sample_size,
                          options);
    shrunk_.push_back(std::make_unique<ShrunkSummary>(
        std::move(components), std::move(lambdas),
        summaries_->uniform_probability()));
    paths_.push_back(std::move(path));
  }
}

}  // namespace fedsearch::core
