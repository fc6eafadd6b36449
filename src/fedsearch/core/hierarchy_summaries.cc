#include "fedsearch/core/hierarchy_summaries.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace fedsearch::core {

SubtractedSummary::SubtractedSummary(
    const summary::SummaryView* minuend, const WordColumn* minuend_words,
    const summary::SummaryView* subtrahend,
    const WordColumn* subtrahend_words,
    const std::vector<const std::string*>* vocabulary)
    : minuend_(minuend),
      minuend_words_(minuend_words),
      subtrahend_(subtrahend),
      subtrahend_words_(subtrahend_words),
      vocabulary_(vocabulary) {}

double SubtractedSummary::num_documents() const {
  if (subtrahend_ == nullptr) return minuend_->num_documents();
  return std::max(0.0, minuend_->num_documents() -
                           subtrahend_->num_documents());
}

double SubtractedSummary::total_tokens() const {
  if (subtrahend_ == nullptr) return minuend_->total_tokens();
  return std::max(0.0, minuend_->total_tokens() - subtrahend_->total_tokens());
}

double SubtractedSummary::DocFrequency(const std::string& word) const {
  if (subtrahend_ == nullptr) return minuend_->DocFrequency(word);
  return std::max(0.0,
                  minuend_->DocFrequency(word) - subtrahend_->DocFrequency(word));
}

double SubtractedSummary::TokenFrequency(const std::string& word) const {
  if (subtrahend_ == nullptr) return minuend_->TokenFrequency(word);
  return std::max(0.0, minuend_->TokenFrequency(word) -
                           subtrahend_->TokenFrequency(word));
}

void SubtractedSummary::ForEachWord(
    const std::function<void(const std::string&, const summary::WordStats&)>&
        fn) const {
  ForEachId([&](uint32_t id, const summary::WordStats& stats) {
    fn(*(*vocabulary_)[id], stats);
  });
}

size_t SubtractedSummary::vocabulary_size() const {
  size_t n = 0;
  ForEachId([&](uint32_t, const summary::WordStats&) { ++n; });
  return n;
}

HierarchySummaries::HierarchySummaries(
    const corpus::TopicHierarchy* hierarchy,
    std::vector<const summary::ContentSummary*> database_summaries,
    std::vector<corpus::CategoryId> classifications)
    : hierarchy_(hierarchy),
      database_summaries_(std::move(database_summaries)),
      classifications_(std::move(classifications)) {
  const size_t nodes = hierarchy_->size();
  aggregates_.resize(nodes);

  // Group databases by their classification node.
  std::vector<std::vector<const summary::ContentSummary*>> at_node(nodes);
  for (size_t i = 0; i < database_summaries_.size(); ++i) {
    at_node[static_cast<size_t>(classifications_[i])].push_back(
        database_summaries_[i]);
  }

  // Nodes are allocated parents-first, so a reverse pass visits children
  // before their parents; aggregate bottom-up.
  for (size_t n = nodes; n-- > 0;) {
    summary::ContentSummary agg =
        summary::ContentSummary::AggregateCategory(at_node[n]);
    for (corpus::CategoryId c :
         hierarchy_->node(static_cast<corpus::CategoryId>(n)).children) {
      const summary::ContentSummary& child =
          aggregates_[static_cast<size_t>(c)];
      child.ForEachWord(
          [&](const std::string& w, const summary::WordStats& stats) {
            agg.AddWord(w, stats);
          });
      agg.set_num_documents(agg.num_documents() + child.num_documents());
    }
    aggregates_[n] = std::move(agg);
  }

  const size_t vocab = aggregates_[0].vocabulary_size();
  uniform_probability_ = vocab > 0 ? 1.0 / static_cast<double>(vocab) : 0.0;

  // Intern the federation vocabulary: the root aggregate's keys, ids in
  // its iteration order (a function of the inputs alone).
  std::unordered_map<std::string_view, uint32_t> ids;
  ids.reserve(vocab);
  vocabulary_.reserve(vocab);
  for (const auto& [word, stats] : aggregates_[0].words()) {
    ids.emplace(word, static_cast<uint32_t>(vocabulary_.size()));
    vocabulary_.push_back(&word);
  }
  const auto column_of = [&ids](const summary::ContentSummary& s) {
    WordColumn column;
    column.reserve(s.vocabulary_size());
    for (const auto& [word, stats] : s.words()) {
      column.push_back(InternedWord{ids.at(word), stats});
    }
    std::sort(column.begin(), column.end(),
              [](const InternedWord& a, const InternedWord& b) {
                return a.id < b.id;
              });
    return column;
  };
  aggregate_words_.reserve(nodes);
  for (const summary::ContentSummary& agg : aggregates_) {
    aggregate_words_.push_back(column_of(agg));
  }
  database_words_.reserve(database_summaries_.size());
  database_views_.reserve(database_summaries_.size());
  for (const summary::ContentSummary* s : database_summaries_) {
    database_words_.push_back(column_of(*s));
  }
  for (size_t i = 0; i < database_summaries_.size(); ++i) {
    database_views_.emplace_back(database_summaries_[i], &database_words_[i],
                                 nullptr, nullptr, &vocabulary_);
  }
}

const SubtractedSummary& HierarchySummaries::ExclusiveOfChild(
    corpus::CategoryId category, corpus::CategoryId child_on_path) const {
  const auto key = std::make_pair(category, child_on_path);
  auto it = edge_exclusive_.find(key);
  if (it == edge_exclusive_.end()) {
    it = edge_exclusive_
             .emplace(key,
                      SubtractedSummary(
                          &aggregates_[static_cast<size_t>(category)],
                          &aggregate_words_[static_cast<size_t>(category)],
                          &aggregates_[static_cast<size_t>(child_on_path)],
                          &aggregate_words_[static_cast<size_t>(child_on_path)],
                          &vocabulary_))
             .first;
  }
  return it->second;
}

const SubtractedSummary& HierarchySummaries::ExclusiveOfDatabase(
    corpus::CategoryId category, size_t db_index) const {
  const auto key = std::make_pair(category, db_index);
  auto it = database_exclusive_.find(key);
  if (it == database_exclusive_.end()) {
    it = database_exclusive_
             .emplace(key, SubtractedSummary(
                               &aggregates_[static_cast<size_t>(category)],
                               &aggregate_words_[static_cast<size_t>(category)],
                               database_summaries_[db_index],
                               &database_words_[db_index], &vocabulary_))
             .first;
  }
  return it->second;
}

}  // namespace fedsearch::core
