#ifndef VQDR_DATA_TUPLE_H_
#define VQDR_DATA_TUPLE_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "data/value.h"

namespace vqdr {

/// A database tuple: a fixed-length sequence of domain values. Vector order
/// and comparisons make tuples usable as ordered set elements. `Tuple` is
/// the owning type for building a single fact; relations store their rows
/// flat and hand them out as `TupleRef`s.
using Tuple = std::vector<Value>;

/// A read-only view of one row: a pointer and a length. Valid while the
/// storage it points into is unchanged (for a relation's rows, until the
/// relation is next modified). Compares lexicographically, like `Tuple`.
class TupleRef {
 public:
  constexpr TupleRef() = default;
  constexpr TupleRef(const Value* data, std::size_t size)
      : data_(data), size_(size) {}
  TupleRef(const Tuple& t)  // NOLINT(google-explicit-constructor)
      : data_(t.data()), size_(t.size()) {}

  const Value* data() const { return data_; }
  std::size_t size() const { return size_; }
  Value operator[](std::size_t i) const { return data_[i]; }
  const Value* begin() const { return data_; }
  const Value* end() const { return data_ + size_; }

  /// An owning copy. Implicit only so that code outside the library which
  /// binds `const Tuple&` to a relation's rows keeps compiling; the library
  /// itself reads rows through the view.
  operator Tuple() const {  // NOLINT(google-explicit-constructor)
    return Tuple(begin(), end());
  }

  friend bool operator==(TupleRef a, TupleRef b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator<(TupleRef a, TupleRef b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  const Value* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Convenience constructor from raw ids: MakeTuple({1, 2, 3}).
Tuple MakeTuple(std::initializer_list<std::int64_t> ids);

/// Renders as "(#1, #2)".
std::string TupleToString(TupleRef t);

}  // namespace vqdr

#endif  // VQDR_DATA_TUPLE_H_
