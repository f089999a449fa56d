// Local-as-view data integration (the paper's first motivating scenario):
// data sources are described as views over a virtual global schema; a user
// query against the global schema is answered by rewriting it over the
// sources — exactly when the sources determine it.
//
// Build & run:  ./build/examples/data_integration

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

  // Global (virtual) schema: Flight(from, to), Airline(from, to, carrier).
  Schema global{{"Flight", 2}, {"Airline", 3}};

  // Three autonomous sources, described as exact views (LAV).
  ViewSet sources;
  sources.Add("S_direct", Query::FromCq(
                              ParseCq("S_direct(x, y) :- Flight(x, y)", pool)
                                  .value()));
  sources.Add(
      "S_hops",
      Query::FromCq(
          ParseCq("S_hops(x, y) :- Flight(x, z), Flight(z, y)", pool)
              .value()));
  sources.Add(
      "S_carriers",
      Query::FromCq(
          ParseCq("S_carriers(c) :- Airline(x, y, c)", pool).value()));

  std::cout << "Source descriptions (LAV):\n" << sources.ToString() << "\n";

  // The sources' actual contents come from some global database the
  // mediator never sees.
  Instance hidden_global =
      ParseInstance("Flight(lis, cdg), Flight(cdg, sfo), Flight(sfo, nrt), "
                    "Airline(lis, cdg, tap), Airline(cdg, sfo, afr)",
                    global, pool)
          .value();
  Instance source_extents = sources.Apply(hidden_global);

  std::vector<std::string> user_queries = {
      // Three-hop itineraries: rewritable as S_direct ∘ S_hops.
      "Q(x, y) :- Flight(x, a), Flight(a, b), Flight(b, y)",
      // Direct flights: trivially the first source.
      "Q(x, y) :- Flight(x, y)",
      // Which airports have outgoing flights on some carrier: NOT
      // determined (carriers are only exposed without their routes).
      "Q(x) :- Airline(x, y, c)",
  };

  for (const std::string& text : user_queries) {
    ConjunctiveQuery q = ParseCq(text, pool).value();
    std::cout << "User query: " << CqToString(q, pool) << "\n";

    CqRewritingResult plan = FindCqRewriting(sources, q);
    if (plan.exists) {
      std::cout << "  plan: " << CqToString(*plan.rewriting, pool) << "\n";
      Relation answer = EvaluateCq(*plan.rewriting, source_extents);
      std::cout << "  answer from sources: {";
      bool first = true;
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
      std::cout << "  (cross-check vs hidden global: "
                << (answer == EvaluateCq(q, hidden_global) ? "match"
                                                           : "MISMATCH")
                << ")\n";
    } else {
      std::cout << "  no exact plan exists (sources do not determine the "
                   "query);\n"
                << "  falling back to certain answers:\n";
      QueryAnsweringOptions opts;
      opts.extra_values = 1;
      opts.max_instances = 1ull << 22;
      CertainAnswers certain = ComputeCertainAnswers(
          sources, Query::FromCq(q), global, source_extents, opts);
      if (!certain.any_preimage && !certain.exhaustive) {
        std::cout << "  certain-answer search infeasible at this extent "
                     "size (pre-image space too large);\n"
                  << "  the mediator reports the query as unanswerable.\n";
      } else {
        std::cout << "  certain answers: " << certain.answer.ToString()
                  << (certain.exhaustive ? "" : " (truncated)") << "\n";
      }
    }
    std::cout << "\n";
  }
  return 0;
}
