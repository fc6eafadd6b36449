// The exact-emission contract of SummaryView::ForEachWord (every emitted
// stat equals DocFrequency/TokenFrequency of the word, bit for bit), and
// the corpus statistics that rely on it: a ScoringStatisticsCache built by
// enumerating shrunk summaries must agree with query-time
// PrepareContextForQuery on every word of the federation.

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "fedsearch/core/adaptive.h"
#include "fedsearch/core/metasearcher.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "fedsearch/selection/scoring.h"
#include "testing/small_testbed.h"

namespace fedsearch::core {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Asserts the exact-emission contract over all of `view`'s words; returns
// how many it emitted.
size_t ExpectExactEmission(const summary::SummaryView& view,
                           const std::string& label) {
  size_t emitted = 0;
  size_t mismatches = 0;
  view.ForEachWord([&](const std::string& w, const summary::WordStats& s) {
    ++emitted;
    if (Bits(s.df) != Bits(view.DocFrequency(w)) ||
        Bits(s.ctf) != Bits(view.TokenFrequency(w))) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << label << ": " << w << " emitted (" << s.df << ", "
                      << s.ctf << "), lookup (" << view.DocFrequency(w)
                      << ", " << view.TokenFrequency(w) << ")";
      }
    }
  });
  EXPECT_EQ(mismatches, 0u) << label;
  return emitted;
}

std::unique_ptr<Metasearcher> SampledFederation(const corpus::Testbed& bed) {
  sampling::QbsOptions options;
  options.target_documents = 80;
  sampling::QbsSampler sampler(
      options, corpus::BuildSamplerDictionary(bed.model(), 10));
  std::vector<sampling::SampleResult> samples;
  std::vector<corpus::CategoryId> classifications;
  util::Rng rng(91);
  for (size_t i = 0; i < bed.num_databases(); ++i) {
    util::Rng db_rng = rng.Fork();
    samples.push_back(sampler.Sample(bed.database(i), db_rng));
    classifications.push_back(bed.category_of(i));
  }
  MetasearcherOptions serial;
  serial.num_threads = 1;
  return std::make_unique<Metasearcher>(&bed.hierarchy(), std::move(samples),
                                        std::move(classifications), serial);
}

// One federation per TREC-like small testbed, shared by the tests below.
class WordEnumerationTest : public ::testing::TestWithParam<bool> {
 protected:
  static void SetUpTestSuite() {
    trec4_bed_ = new corpus::Testbed(testing::SmallTestbedOptions());
    trec6_bed_ = new corpus::Testbed(testing::SmallTrec6TestbedOptions());
    trec4_ = SampledFederation(*trec4_bed_).release();
    trec6_ = SampledFederation(*trec6_bed_).release();
  }

  static const Metasearcher& meta() { return GetParam() ? *trec6_ : *trec4_; }

  static corpus::Testbed* trec4_bed_;
  static corpus::Testbed* trec6_bed_;
  static Metasearcher* trec4_;
  static Metasearcher* trec6_;
};

corpus::Testbed* WordEnumerationTest::trec4_bed_ = nullptr;
corpus::Testbed* WordEnumerationTest::trec6_bed_ = nullptr;
Metasearcher* WordEnumerationTest::trec4_ = nullptr;
Metasearcher* WordEnumerationTest::trec6_ = nullptr;

TEST_P(WordEnumerationTest, ContentSummaryEmitsItsLookups) {
  for (size_t i = 0; i < meta().num_databases(); ++i) {
    ExpectExactEmission(meta().plain_summary(i), "plain " + std::to_string(i));
  }
  ExpectExactEmission(meta().global_summary(), "root aggregate");
}

TEST_P(WordEnumerationTest, SubtractedSummaryEmitsItsLookups) {
  const HierarchySummaries& hs = meta().hierarchy_summaries();
  for (size_t i = 0; i < meta().num_databases(); ++i) {
    const std::vector<corpus::CategoryId> path =
        hs.hierarchy().PathFromRoot(hs.classification(i));
    for (size_t level = 0; level + 1 < path.size(); ++level) {
      ExpectExactEmission(hs.ExclusiveOfChild(path[level], path[level + 1]),
                          "edge of db " + std::to_string(i));
    }
    ExpectExactEmission(hs.ExclusiveOfDatabase(path.back(), i),
                        "level-m of db " + std::to_string(i));
    EXPECT_EQ(ExpectExactEmission(hs.DatabaseView(i), "database view"),
              meta().plain_summary(i).vocabulary_size());
  }
}

TEST_P(WordEnumerationTest, ShrunkSummaryEmitsItsLookups) {
  for (size_t i = 0; i < meta().num_databases(); ++i) {
    const ShrunkSummary& shrunk = meta().shrunk_summary(i);
    const size_t emitted =
        ExpectExactEmission(shrunk, "shrunk " + std::to_string(i));
    // The database's own words are always among the mixture's words.
    EXPECT_GE(emitted, meta().plain_summary(i).vocabulary_size());
    EXPECT_LE(emitted, shrunk.vocabulary_size());
  }
}

TEST_P(WordEnumerationTest, OverrideSummaryEmitsItsLookups) {
  const summary::ContentSummary& base = meta().plain_summary(0);
  ASSERT_GT(base.vocabulary_size(), 2u);
  std::unordered_map<std::string, double> overrides;
  auto it = base.words().begin();
  overrides[it->first] = 3.0;   // a sampled word, raised
  ++it;
  overrides[it->first] = 0.0;   // a sampled word, removed
  overrides["never-sampled-word"] = 2.0;  // appended after the base words
  const OverrideSummary view(&base, &overrides);
  EXPECT_EQ(ExpectExactEmission(view, "override"), base.vocabulary_size() + 1);
}

TEST_P(WordEnumerationTest, ShrunkStatisticsMatchPreparedContext) {
  std::vector<const summary::SummaryView*> shrunk;
  for (size_t i = 0; i < meta().num_databases(); ++i) {
    shrunk.push_back(&meta().shrunk_summary(i));
  }
  const selection::ScoringStatisticsCache cache(shrunk);

  // Every word of the federation, prepared the query-time way.
  selection::Query all;
  for (const auto& [word, stats] : meta().global_summary().words()) {
    all.terms.push_back(word);
  }
  selection::ScoringContext context;
  context.ranked_summaries = shrunk;
  selection::PrepareContextForQuery(all, context);

  size_t present = 0;
  size_t mismatches = 0;
  for (const std::string& w : all.terms) {
    const size_t expected = context.cached_cf.at(w);
    present += expected > 0 ? 1 : 0;
    if (cache.CollectionFrequency(w) != expected && ++mismatches <= 5) {
      ADD_FAILURE() << w << ": cache " << cache.CollectionFrequency(w)
                    << ", prepared " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(present, 0u);
  EXPECT_EQ(cache.vocabulary_size(), present);
  EXPECT_EQ(Bits(cache.mean_cw()), Bits(context.cached_mean_cw));
}

INSTANTIATE_TEST_SUITE_P(SmallTestbeds, WordEnumerationTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Trec6" : "Trec4";
                         });

}  // namespace
}  // namespace fedsearch::core
