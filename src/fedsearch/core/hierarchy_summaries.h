#ifndef FEDSEARCH_CORE_HIERARCHY_SUMMARIES_H_
#define FEDSEARCH_CORE_HIERARCHY_SUMMARIES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fedsearch/corpus/topic_hierarchy.h"
#include "fedsearch/summary/content_summary.h"

namespace fedsearch::core {

// One word of a summary by its id in the federation vocabulary interned by
// HierarchySummaries, with the summary's own statistics for it.
struct InternedWord {
  uint32_t id;
  summary::WordStats stats;
};

// All words of one summary, ascending by id.
using WordColumn = std::vector<InternedWord>;

// A lazily-subtracted summary: `minuend` minus `subtrahend`, clamped at
// zero. Used to implement Definition 4's overlap rule — "we subtract from
// S(Ci) all the data used to construct S(Ci+1)" — without materializing a
// summary per (category, child) pair per database. A null subtrahend
// subtracts nothing: the view is then the minuend itself, which is how a
// database's own summary enters a shrunk mixture.
//
// Enumeration runs over interned id columns (a merge of two ascending
// columns), never over strings; point lookups stay string-keyed.
class SubtractedSummary : public summary::SummaryView {
 public:
  // `minuend_words` / `subtrahend_words` are the two views' words interned
  // over `vocabulary` (id → word). All referents must outlive this object.
  // The subtrahend's data must be a subset of the minuend's (a child
  // subtree of the aggregated category).
  SubtractedSummary(const summary::SummaryView* minuend,
                    const WordColumn* minuend_words,
                    const summary::SummaryView* subtrahend,
                    const WordColumn* subtrahend_words,
                    const std::vector<const std::string*>* vocabulary);

  double num_documents() const override;
  double total_tokens() const override;
  double DocFrequency(const std::string& word) const override;
  double TokenFrequency(const std::string& word) const override;
  void ForEachWord(
      const std::function<void(const std::string&,
                               const summary::WordStats&)>& fn) const override;
  size_t vocabulary_size() const override;

  // fn(id, stats) for every word ForEachWord emits, ascending by id, with
  // the same stats (bit-equal to DocFrequency/TokenFrequency of the word).
  template <typename Fn>
  void ForEachId(Fn&& fn) const;

  // The interned vocabulary the ids index: vocabulary()[id] is the word.
  const std::vector<const std::string*>& vocabulary() const {
    return *vocabulary_;
  }

 private:
  const summary::SummaryView* minuend_;
  const WordColumn* minuend_words_;
  const summary::SummaryView* subtrahend_;  // null: nothing subtracted
  const WordColumn* subtrahend_words_;
  const std::vector<const std::string*>* vocabulary_;
};

template <typename Fn>
void SubtractedSummary::ForEachId(Fn&& fn) const {
  const WordColumn& plus = *minuend_words_;
  if (subtrahend_ == nullptr) {
    for (const InternedWord& w : plus) fn(w.id, w.stats);
    return;
  }
  // Both columns ascend by id: one merge pass. A word the subtrahend lacks
  // subtracts 0.0, exactly what its DocFrequency/TokenFrequency return.
  const WordColumn& minus = *subtrahend_words_;
  auto m = minus.begin();
  for (const InternedWord& w : plus) {
    while (m != minus.end() && m->id < w.id) ++m;
    const bool both = m != minus.end() && m->id == w.id;
    const summary::WordStats out{
        std::max(0.0, w.stats.df - (both ? m->stats.df : 0.0)),
        std::max(0.0, w.stats.ctf - (both ? m->stats.ctf : 0.0))};
    if (out.df > 0.0 || out.ctf > 0.0) fn(w.id, out);
  }
}

// Category content summaries (Definition 3) over a topic hierarchy, plus
// the sibling-exclusive views shrinkage needs.
//
// For every category C, aggregate(C) combines the approximate summaries of
// all databases classified in C's subtree, size-weighted per Equation 1.
// For a database D with path C1, ..., Cm, the summary used at level i is
// aggregate(Ci) minus aggregate(Ci+1) — and at level m, aggregate(Cm)
// minus S(D) itself — so the mixture components of Definition 4 draw on
// disjoint data.
//
// The federation vocabulary is interned once at construction: the root
// aggregate holds the union of every database's words, so its keys serve
// as the id → word table (ids in its iteration order), and every aggregate
// and database summary gets its words as an id column. The word → id map
// exists only while the columns are built.
class HierarchySummaries {
 public:
  // `hierarchy` and the summaries must outlive this object.
  // classifications[i] is the category of database i (any node, not
  // necessarily a leaf).
  HierarchySummaries(
      const corpus::TopicHierarchy* hierarchy,
      std::vector<const summary::ContentSummary*> database_summaries,
      std::vector<corpus::CategoryId> classifications);

  // The views point into this object's own storage.
  HierarchySummaries(const HierarchySummaries&) = delete;
  HierarchySummaries& operator=(const HierarchySummaries&) = delete;

  const corpus::TopicHierarchy& hierarchy() const { return *hierarchy_; }

  // Aggregated summary of the subtree rooted at `category`.
  const summary::ContentSummary& aggregate(corpus::CategoryId category) const {
    return aggregates_[static_cast<size_t>(category)];
  }

  // The root aggregate doubles as the "global" category summary G used by
  // the LM selection algorithm (Section 5.3).
  const summary::ContentSummary& root_aggregate() const {
    return aggregates_[0];
  }

  // aggregate(category) minus aggregate(child_on_path); cached per edge.
  const SubtractedSummary& ExclusiveOfChild(
      corpus::CategoryId category, corpus::CategoryId child_on_path) const;

  // aggregate(category) minus database `db_index`'s own summary (the level-m
  // component for that database). Cached per database.
  const SubtractedSummary& ExclusiveOfDatabase(corpus::CategoryId category,
                                               size_t db_index) const;

  // Database `db_index`'s own summary as an interned view (nothing
  // subtracted): the last component of its shrunk mixture.
  const SubtractedSummary& DatabaseView(size_t db_index) const {
    return database_views_[db_index];
  }

  // Uniform word probability of the dummy category C0: 1 / |V| over the
  // union vocabulary of all approximate summaries.
  double uniform_probability() const { return uniform_probability_; }

  size_t num_databases() const { return database_summaries_.size(); }
  const summary::ContentSummary& database_summary(size_t i) const {
    return *database_summaries_[i];
  }
  corpus::CategoryId classification(size_t i) const {
    return classifications_[i];
  }

 private:
  const corpus::TopicHierarchy* hierarchy_;
  std::vector<const summary::ContentSummary*> database_summaries_;
  std::vector<corpus::CategoryId> classifications_;
  std::vector<summary::ContentSummary> aggregates_;
  double uniform_probability_ = 0.0;
  // id → word; the strings are the root aggregate's keys.
  std::vector<const std::string*> vocabulary_;
  std::vector<WordColumn> aggregate_words_;  // per node
  std::vector<WordColumn> database_words_;   // per database
  std::vector<SubtractedSummary> database_views_;
  // Keyed by (parent, child) edge / by database index. std::map keeps
  // pointer stability irrelevant: values are node-allocated.
  mutable std::map<std::pair<corpus::CategoryId, corpus::CategoryId>,
                   SubtractedSummary>
      edge_exclusive_;
  mutable std::map<std::pair<corpus::CategoryId, size_t>, SubtractedSummary>
      database_exclusive_;
};

}  // namespace fedsearch::core

#endif  // FEDSEARCH_CORE_HIERARCHY_SUMMARIES_H_
