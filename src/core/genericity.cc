#include "core/genericity.h"

#include "data/isomorphism.h"

namespace vqdr {

bool CheckAnswerDomainContained(const ViewSet& views, const Query& q,
                                const Instance& d) {
  Instance image = views.Apply(d);
  std::set<Value> view_adom = image.ActiveDomain();
  Relation answer = q.Eval(d);
  for (TupleRef t : answer.tuples()) {
    for (Value v : t) {
      if (view_adom.count(v) == 0) return false;
    }
  }
  return true;
}

bool CheckAutomorphismsPreserved(const ViewSet& views, const Query& q,
                                 const Instance& d) {
  Instance image = views.Apply(d);
  Relation answer = q.Eval(d);

  for (const ValueBijection& pi : Automorphisms(image)) {
    Relation mapped = answer.Apply([&pi](Value v) {
      auto it = pi.find(v);
      return it != pi.end() ? it->second : v;
    });
    if (mapped != answer) return false;
  }
  return true;
}

}  // namespace vqdr
