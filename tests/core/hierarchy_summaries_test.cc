#include "fedsearch/core/hierarchy_summaries.h"

#include <gtest/gtest.h>

namespace fedsearch::core {
namespace {

summary::ContentSummary MakeDb(
    double n, std::vector<std::tuple<std::string, double, double>> words) {
  summary::ContentSummary s;
  s.set_num_documents(n);
  for (const auto& [w, df, ctf] : words) {
    s.SetWord(w, summary::WordStats{df, ctf});
  }
  return s;
}

class HierarchySummariesTest : public ::testing::Test {
 protected:
  HierarchySummariesTest() : hierarchy_("Root") {
    health_ = hierarchy_.AddCategory("Health", hierarchy_.root());
    heart_ = hierarchy_.AddCategory("Heart", health_);
    sports_ = hierarchy_.AddCategory("Sports", hierarchy_.root());

    // db0, db1 under Heart; db2 under Health directly; db3 under Sports.
    dbs_.push_back(MakeDb(100, {{"cardiac", 50, 80}, {"shared", 10, 10}}));
    dbs_.push_back(MakeDb(300, {{"cardiac", 60, 90}, {"hypertension", 30, 40}}));
    dbs_.push_back(MakeDb(200, {{"clinical", 80, 100}, {"shared", 20, 20}}));
    dbs_.push_back(MakeDb(400, {{"goal", 200, 300}}));
    for (const auto& d : dbs_) ptrs_.push_back(&d);
    classifications_ = {heart_, heart_, health_, sports_};
    hs_ = std::make_unique<HierarchySummaries>(&hierarchy_, ptrs_,
                                               classifications_);
  }

  corpus::TopicHierarchy hierarchy_;
  corpus::CategoryId health_, heart_, sports_;
  std::vector<summary::ContentSummary> dbs_;
  std::vector<const summary::ContentSummary*> ptrs_;
  std::vector<corpus::CategoryId> classifications_;
  std::unique_ptr<HierarchySummaries> hs_;
};

TEST_F(HierarchySummariesTest, AggregatesBottomUp) {
  // Heart aggregates db0 + db1.
  const auto& heart = hs_->aggregate(heart_);
  EXPECT_DOUBLE_EQ(heart.num_documents(), 400.0);
  EXPECT_DOUBLE_EQ(heart.DocFrequency("cardiac"), 110.0);
  // Health adds db2 on top of the Heart subtree.
  const auto& health = hs_->aggregate(health_);
  EXPECT_DOUBLE_EQ(health.num_documents(), 600.0);
  EXPECT_DOUBLE_EQ(health.DocFrequency("clinical"), 80.0);
  EXPECT_DOUBLE_EQ(health.DocFrequency("cardiac"), 110.0);
  // Root covers everything.
  const auto& root = hs_->root_aggregate();
  EXPECT_DOUBLE_EQ(root.num_documents(), 1000.0);
  EXPECT_DOUBLE_EQ(root.DocFrequency("goal"), 200.0);
}

TEST_F(HierarchySummariesTest, Equation1SizeWeighting) {
  // p̂(cardiac|Heart) = (0.5*100 + 0.2*300) / 400 = 110/400.
  EXPECT_DOUBLE_EQ(hs_->aggregate(heart_).ProbDoc("cardiac"), 110.0 / 400.0);
}

TEST_F(HierarchySummariesTest, ExclusiveOfChildSubtractsSubtree) {
  // Health exclusive of Heart = db2 only.
  const auto& excl = hs_->ExclusiveOfChild(health_, heart_);
  EXPECT_DOUBLE_EQ(excl.num_documents(), 200.0);
  EXPECT_DOUBLE_EQ(excl.DocFrequency("clinical"), 80.0);
  EXPECT_DOUBLE_EQ(excl.DocFrequency("cardiac"), 0.0);
  EXPECT_DOUBLE_EQ(excl.DocFrequency("shared"), 20.0);
}

TEST_F(HierarchySummariesTest, ExclusiveOfDatabaseSubtractsOneDb) {
  // Heart exclusive of db0 = db1 only.
  const auto& excl = hs_->ExclusiveOfDatabase(heart_, 0);
  EXPECT_DOUBLE_EQ(excl.num_documents(), 300.0);
  EXPECT_DOUBLE_EQ(excl.DocFrequency("cardiac"), 60.0);
  EXPECT_DOUBLE_EQ(excl.DocFrequency("hypertension"), 30.0);
  EXPECT_DOUBLE_EQ(excl.DocFrequency("shared"), 0.0);
}

TEST_F(HierarchySummariesTest, ExclusiveViewsAreCached) {
  const auto& a = hs_->ExclusiveOfChild(health_, heart_);
  const auto& b = hs_->ExclusiveOfChild(health_, heart_);
  EXPECT_EQ(&a, &b);
  const auto& c = hs_->ExclusiveOfDatabase(heart_, 1);
  const auto& d = hs_->ExclusiveOfDatabase(heart_, 1);
  EXPECT_EQ(&c, &d);
}

TEST_F(HierarchySummariesTest, UniformProbabilityIsInverseVocabulary) {
  // Union vocabulary: cardiac, shared, hypertension, clinical, goal = 5.
  EXPECT_DOUBLE_EQ(hs_->uniform_probability(), 1.0 / 5.0);
}

TEST_F(HierarchySummariesTest, SubtractedSummaryIterationSkipsZeroedWords) {
  const auto& excl = hs_->ExclusiveOfChild(health_, heart_);
  size_t count = 0;
  excl.ForEachWord([&](const std::string& w, const summary::WordStats& s) {
    EXPECT_GT(s.df + s.ctf, 0.0) << w;
    ++count;
  });
  EXPECT_EQ(count, excl.vocabulary_size());
  EXPECT_EQ(count, 2u);  // clinical + shared
}

TEST_F(HierarchySummariesTest, SubtractedTotalsClampAtZero) {
  // Subtracting a view from itself yields an all-zero summary.
  const SubtractedSummary& self = hs_->ExclusiveOfChild(heart_, heart_);
  EXPECT_DOUBLE_EQ(self.num_documents(), 0.0);
  EXPECT_DOUBLE_EQ(self.total_tokens(), 0.0);
  EXPECT_EQ(self.vocabulary_size(), 0u);
}

TEST_F(HierarchySummariesTest, DatabaseViewIsTheSummaryItself) {
  const SubtractedSummary& view = hs_->DatabaseView(1);
  EXPECT_DOUBLE_EQ(view.num_documents(), 300.0);
  EXPECT_DOUBLE_EQ(view.total_tokens(), dbs_[1].total_tokens());
  EXPECT_DOUBLE_EQ(view.DocFrequency("hypertension"), 30.0);
  EXPECT_DOUBLE_EQ(view.TokenFrequency("cardiac"), 90.0);
  EXPECT_EQ(view.vocabulary_size(), 2u);
}

TEST_F(HierarchySummariesTest, IdEnumerationAscendsOverTheRootVocabulary) {
  // One id per union word, naming the root aggregate's keys.
  const auto& vocabulary = hs_->DatabaseView(0).vocabulary();
  ASSERT_EQ(vocabulary.size(), hs_->root_aggregate().vocabulary_size());
  for (const std::string* word : vocabulary) {
    EXPECT_GT(hs_->root_aggregate().DocFrequency(*word), 0.0) << *word;
  }
  const auto& excl = hs_->ExclusiveOfChild(hierarchy_.root(), health_);
  uint32_t last = 0;
  size_t count = 0;
  excl.ForEachId([&](uint32_t id, const summary::WordStats& stats) {
    if (count++ > 0) EXPECT_GT(id, last);
    last = id;
    EXPECT_EQ(stats.df, excl.DocFrequency(*vocabulary[id]));
  });
  EXPECT_EQ(count, 1u);  // goal: Root minus Health is db3 alone
}

TEST_F(HierarchySummariesTest, EmptyCategoryAggregatesToEmpty) {
  // Sports has one db; a fresh category with none aggregates to empty.
  corpus::TopicHierarchy h2("Root");
  const corpus::CategoryId lonely = h2.AddCategory("Lonely", h2.root());
  HierarchySummaries hs(&h2, {}, {});
  EXPECT_DOUBLE_EQ(hs.aggregate(lonely).num_documents(), 0.0);
  EXPECT_EQ(hs.uniform_probability(), 0.0);
}

}  // namespace
}  // namespace fedsearch::core
