// Concurrent reads of the data layer. Pool workers (service requests, batch
// decisions, parallel containment) share instances and call Instance::Get
// at the same time; labelled PAR so the tsan job runs it.

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/instance.h"

namespace vqdr {
namespace {

// Get() on an unpopulated relation returns a process-wide empty relation of
// its arity. The first lookup of an arity must not race another thread's
// lookup of the same or another fresh arity.
TEST(InstanceConcurrency, EmptyRelationsOfFreshAritiesAreRaceFree) {
  std::vector<int> arities;
  for (int a = 10; a <= 40; ++a) arities.push_back(a);
  for (int a = 100; a <= 130; ++a) arities.push_back(a);
  Schema schema;
  for (int a : arities) schema.Add("R" + std::to_string(a), a);
  const Instance db(schema);

  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Each thread walks the arities from its own offset, so first lookups
      // of a fresh arity collide with lookups of others.
      for (std::size_t i = 0; i < arities.size(); ++i) {
        int a = arities[(i + static_cast<std::size_t>(t) * 7) % arities.size()];
        const Relation& r = db.Get("R" + std::to_string(a));
        if (r.arity() != a || !r.empty()) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

}  // namespace
}  // namespace vqdr
