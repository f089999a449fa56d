#include "data/tuple.h"

#include <sstream>

namespace vqdr {

Tuple MakeTuple(std::initializer_list<std::int64_t> ids) {
  Tuple t;
  t.reserve(ids.size());
  for (std::int64_t id : ids) t.push_back(Value(id));
  return t;
}

std::string TupleToString(TupleRef t) {
  std::ostringstream out;
  out << "(";
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out << ", ";
    out << t[i];
  }
  out << ")";
  return out.str();
}

}  // namespace vqdr
