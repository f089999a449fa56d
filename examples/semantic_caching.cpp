// Semantic caching (the paper's second motivating scenario): answers to a
// set of queries against a source are cached; when a new query arrives,
// decide whether it can be answered from the cache alone — and if not,
// what the certain answers are.
//
// Build & run:  ./build/examples/semantic_caching

#include <iostream>
#include <vector>

#include "core/determinacy.h"
#include "core/query_answering.h"
#include "core/rewriting.h"
#include "cq/matcher.h"
#include "cq/parser.h"

using namespace vqdr;

int main() {
  NamePool pool;

  // Source schema: Orders(customer, item) and Vip(customer).
  Schema base{{"Orders", 2}, {"Vip", 1}};

  // The cache holds two query results.
  ViewSet cache;
  cache.Add("CachedVipOrders",
            Query::FromCq(
                ParseCq("CachedVipOrders(c, i) :- Orders(c, i), Vip(c)", pool)
                    .value()));
  cache.Add("CachedVip",
            Query::FromCq(ParseCq("CachedVip(c) :- Vip(c)", pool).value()));

  std::cout << "Cached views:\n" << cache.ToString() << "\n";

  // The actual source data (the cache was filled from it).
  Instance source =
      ParseInstance("Orders(ann, laptop), Orders(bob, phone), "
                    "Orders(ann, phone), Vip(ann)",
                    base, pool)
          .value();
  Instance cached = cache.Apply(source);

  std::vector<std::string> incoming = {
      // Answerable from the cache: items ordered by VIPs.
      "Q(i) :- Orders(c, i), Vip(c)",
      // Answerable: VIP customers who ordered something.
      "Q(c) :- Vip(c), Orders(c, i)",
      // Not answerable: all orders (the cache only covers VIPs).
      "Q(c, i) :- Orders(c, i)",
  };

  for (const std::string& text : incoming) {
    ConjunctiveQuery q = ParseCq(text, pool).value();
    std::cout << "Incoming query: " << CqToString(q, pool) << "\n";

    CqRewritingResult rewriting = FindCqRewriting(cache, q);
    if (rewriting.exists) {
      std::cout << "  -> answerable from cache via "
                << CqToString(*rewriting.rewriting, pool) << "\n";
      Relation answer = EvaluateCq(*rewriting.rewriting, cached);
      std::cout << "  -> answer (no source access): ";
      bool first = true;
      std::cout << "{";
      for (TupleRef t : answer.tuples()) {
        if (!first) std::cout << ", ";
        first = false;
        std::cout << "(";
        for (std::size_t i = 0; i < t.size(); ++i) {
          if (i > 0) std::cout << ", ";
          std::cout << pool.NameOf(t[i]);
        }
        std::cout << ")";
      }
      std::cout << "}\n";
      // Cross-check against the source.
      Relation truth = EvaluateCq(q, source);
      std::cout << "  -> matches source: "
                << (answer == truth ? "yes" : "NO") << "\n";
    } else {
      std::cout << "  -> NOT answerable exactly from the cache "
                << "(cache does not determine it)\n";
      // Fall back to certain answers: tuples guaranteed regardless of what
      // the un-cached part of the source contains.
      QueryAnsweringOptions opts;
      opts.extra_values = 1;
      CertainAnswers certain =
          ComputeCertainAnswers(cache, Query::FromCq(q), base, cached, opts);
      std::cout << "  -> certain answers from cache: "
                << certain.answer.ToString()
                << (certain.exhaustive ? "" : " (search truncated)") << "\n";
    }
    std::cout << "\n";
  }
  return 0;
}
