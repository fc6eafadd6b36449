#ifndef FEDSEARCH_TESTS_TESTING_SMALL_TESTBED_H_
#define FEDSEARCH_TESTS_TESTING_SMALL_TESTBED_H_

#include "fedsearch/corpus/testbed.h"

namespace fedsearch::testing {

// The reductions shared by the small testbeds below: few, small
// databases over shrunken topic vocabularies.
inline corpus::TestbedOptions Reduced(corpus::TestbedOptions o) {
  o.num_databases = 12;
  o.num_queries = 6;
  o.min_db_docs = 120;
  o.max_db_docs = 600;
  o.model.vocab_size_by_depth[0] = 4000;
  o.model.vocab_size_by_depth[1] = 1500;
  o.model.vocab_size_by_depth[2] = 1000;
  o.model.vocab_size_by_depth[3] = 800;
  o.model.database_vocab_size = 300;
  o.model.doc_length_mean = 60.0;
  return o;
}

// A reduced testbed configuration that keeps unit tests fast (seconds, not
// minutes) while preserving the statistical structure: Zipfian vocabulary,
// topical databases, shared category vocabulary.
inline corpus::TestbedOptions SmallTestbedOptions() {
  corpus::TestbedOptions o = Reduced(corpus::Testbed::Trec4Options(/*scale=*/1.0));
  o.min_query_words = 4;
  o.max_query_words = 10;
  return o;
}

// The same reductions over the TREC-6-like configuration (its own seed and
// short queries).
inline corpus::TestbedOptions SmallTrec6TestbedOptions() {
  return Reduced(corpus::Testbed::Trec6Options(/*scale=*/1.0));
}

// Shared instance: built once per test binary. Tests must treat it as
// read-only (CountRelevant's internal cache is the only mutation and is
// safe single-threaded).
inline const corpus::Testbed& SharedSmallTestbed() {
  static const corpus::Testbed* bed = new corpus::Testbed(SmallTestbedOptions());
  return *bed;
}

}  // namespace fedsearch::testing

#endif  // FEDSEARCH_TESTS_TESTING_SMALL_TESTBED_H_
