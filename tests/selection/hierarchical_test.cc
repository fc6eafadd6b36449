#include "fedsearch/selection/hierarchical.h"

#include <gtest/gtest.h>

#include "fedsearch/core/hierarchy_summaries.h"
#include "fedsearch/selection/bgloss.h"

namespace fedsearch::selection {
namespace {

// A tiny two-branch hierarchy:
//   Root -> Health -> {Heart, Aids}; Root -> Sports -> {Soccer}.
class HierarchicalTest : public ::testing::Test {
 protected:
  HierarchicalTest() : hierarchy_("Root") {
    health_ = hierarchy_.AddCategory("Health", hierarchy_.root());
    heart_ = hierarchy_.AddCategory("Heart", health_);
    aids_ = hierarchy_.AddCategory("Aids", health_);
    sports_ = hierarchy_.AddCategory("Sports", hierarchy_.root());
    soccer_ = hierarchy_.AddCategory("Soccer", sports_);

    // Databases: two under Heart, one under Aids, two under Soccer.
    summaries_.push_back(MakeDb(100, {{"cardiac", 60}}));          // 0
    summaries_.push_back(MakeDb(100, {{"cardiac", 30}}));          // 1
    summaries_.push_back(MakeDb(100, {{"hiv", 50}}));              // 2
    summaries_.push_back(MakeDb(100, {{"goal", 70}}));             // 3
    summaries_.push_back(MakeDb(100, {{"goal", 20}, {"cardiac", 5}}));  // 4
    classifications_ = {heart_, heart_, aids_, soccer_, soccer_};
    for (const auto& s : summaries_) summary_ptrs_.push_back(&s);
    aggregates_ = std::make_unique<core::HierarchySummaries>(
        &hierarchy_, summary_ptrs_, classifications_);
    selector_ = std::make_unique<HierarchicalSelector>(
        &hierarchy_, summary_ptrs_, classifications_,
        CategorySummaries(*aggregates_));
  }

  // Node n's subtree aggregate, as the Metasearcher passes them.
  std::vector<const summary::ContentSummary*> CategorySummaries(
      const core::HierarchySummaries& hs) const {
    std::vector<const summary::ContentSummary*> out;
    for (size_t n = 0; n < hierarchy_.size(); ++n) {
      out.push_back(&hs.aggregate(static_cast<corpus::CategoryId>(n)));
    }
    return out;
  }

  static summary::ContentSummary MakeDb(
      double n, std::vector<std::pair<std::string, double>> words) {
    summary::ContentSummary s;
    s.set_num_documents(n);
    for (const auto& [w, df] : words) {
      s.SetWord(w, summary::WordStats{df, df});
    }
    return s;
  }

  corpus::TopicHierarchy hierarchy_;
  corpus::CategoryId health_, heart_, aids_, sports_, soccer_;
  std::vector<summary::ContentSummary> summaries_;
  std::vector<const summary::ContentSummary*> summary_ptrs_;
  std::vector<corpus::CategoryId> classifications_;
  std::unique_ptr<core::HierarchySummaries> aggregates_;
  std::unique_ptr<HierarchicalSelector> selector_;
};

TEST_F(HierarchicalTest, DescendsToTopicalDatabases) {
  BglossScorer bgloss;
  const auto ranking = selector_->Select(Query{{"cardiac"}}, 2, bgloss);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].database, 0u);
  EXPECT_EQ(ranking[1].database, 1u);
}

TEST_F(HierarchicalTest, CommitsToBestCategoryEvenWhenThin) {
  // The defining weakness of the hierarchical baseline (Section 6.2): once
  // a category is chosen, it keeps supplying databases from it. Query
  // [cardiac]: Health's category summary dominates, so both Heart
  // databases are returned before the Soccer database that also contains
  // "cardiac".
  BglossScorer bgloss;
  const auto ranking = selector_->Select(Query{{"cardiac"}}, 3, bgloss);
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking[0].database, 0u);
  EXPECT_EQ(ranking[1].database, 1u);
  EXPECT_EQ(ranking[2].database, 4u);
}

TEST_F(HierarchicalTest, HonorsBudget) {
  BglossScorer bgloss;
  EXPECT_EQ(selector_->Select(Query{{"cardiac"}}, 1, bgloss).size(), 1u);
  EXPECT_EQ(selector_->Select(Query{{"goal"}}, 10, bgloss).size(), 2u);
}

TEST_F(HierarchicalTest, ReturnsNothingWithoutEvidence) {
  BglossScorer bgloss;
  EXPECT_TRUE(selector_->Select(Query{{"nonexistent"}}, 5, bgloss).empty());
}

TEST_F(HierarchicalTest, DatabasesClassifiedAtInternalNodesAreReachable) {
  // Attach a database directly at "Health" (an internal node), as FPS can.
  summaries_.push_back(MakeDb(100, {{"clinical", 40}}));
  std::vector<const summary::ContentSummary*> ptrs;
  for (const auto& s : summaries_) ptrs.push_back(&s);
  std::vector<corpus::CategoryId> cls = classifications_;
  cls.push_back(health_);
  const core::HierarchySummaries hs(&hierarchy_, ptrs, cls);
  HierarchicalSelector selector(&hierarchy_, ptrs, cls, CategorySummaries(hs));
  BglossScorer bgloss;
  const auto ranking = selector.Select(Query{{"clinical"}}, 3, bgloss);
  ASSERT_EQ(ranking.size(), 1u);
  EXPECT_EQ(ranking[0].database, 5u);
}

}  // namespace
}  // namespace fedsearch::selection
