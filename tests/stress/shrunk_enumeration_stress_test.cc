#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fedsearch/core/metasearcher.h"
#include "fedsearch/sampling/qbs_sampler.h"
#include "testing/small_testbed.h"

// TSan-targeted coverage for ShrunkSummary::ForEachWord: its dense merge
// scratch must be private to each call, so concurrent enumerations of one
// summary (concurrent statistics builds, metrics passes) return exactly the
// serial output.

namespace fedsearch::core {
namespace {

using fedsearch::testing::SharedSmallTestbed;

// (word, df bits, ctf bits) in emission order.
using Emission = std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>>;

Emission Enumerate(const summary::SummaryView& view) {
  Emission out;
  view.ForEachWord([&](const std::string& w, const summary::WordStats& s) {
    out.emplace_back(w, std::make_pair(std::bit_cast<uint64_t>(s.df),
                                       std::bit_cast<uint64_t>(s.ctf)));
  });
  return out;
}

TEST(ShrunkEnumerationStressTest, ConcurrentCallsMatchSerialOutput) {
  const corpus::Testbed& bed = SharedSmallTestbed();
  sampling::QbsOptions options;
  options.target_documents = 60;
  sampling::QbsSampler sampler(
      options, corpus::BuildSamplerDictionary(bed.model(), 10));
  std::vector<sampling::SampleResult> samples;
  std::vector<corpus::CategoryId> classifications;
  util::Rng rng(515);
  for (size_t i = 0; i < bed.num_databases(); ++i) {
    util::Rng db_rng = rng.Fork();
    samples.push_back(sampler.Sample(bed.database(i), db_rng));
    classifications.push_back(bed.category_of(i));
  }
  MetasearcherOptions serial;
  serial.num_threads = 1;
  const Metasearcher meta(&bed.hierarchy(), std::move(samples),
                          std::move(classifications), serial);

  const size_t n = meta.num_databases();
  std::vector<Emission> reference;
  for (size_t i = 0; i < n; ++i) {
    reference.push_back(Enumerate(meta.shrunk_summary(i)));
    ASSERT_FALSE(reference.back().empty()) << i;
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 3;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread walks all databases, starting at a different one, so
      // each summary sees overlapping calls.
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < n; ++k) {
          const size_t i = (k + t) % n;
          if (Enumerate(meta.shrunk_summary(i)) != reference[i]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u) << t;
}

}  // namespace
}  // namespace fedsearch::core
