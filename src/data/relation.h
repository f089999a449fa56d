#ifndef VQDR_DATA_RELATION_H_
#define VQDR_DATA_RELATION_H_

#include <cstddef>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "data/tuple.h"
#include "data/value.h"

namespace vqdr {

/// Rows of one arity laid end to end, appended in any order and possibly
/// repeated: the input of Relation's bulk constructor, which sorts them
/// once. When the buffer is full it is sorted and deduplicated in place and
/// given room for twice its distinct rows, so it never holds more than
/// max(64, 2 × distinct) rows, or the reserved count if that is more.
class RowBuffer {
 public:
  explicit RowBuffer(int arity) : arity_(arity) {}

  /// Rows held, repeats included.
  std::size_t size() const { return rows_; }

  /// Makes room for `rows` rows, which are then appended without
  /// compacting. For batches that repeat few rows.
  void Reserve(std::size_t rows);

  /// Appends one row and returns where to write its values, as many as the
  /// arity; the pointer is valid until the next append.
  Value* AppendRow();

  /// Appends a copy of `row` (arity-checked).
  void Append(TupleRef row);

 private:
  friend class Relation;

  static constexpr std::size_t kMinCompact = 64;

  // Sorts the rows and drops repeats.
  void SortUnique();

  int arity_;
  std::size_t rows_ = 0;
  std::size_t sorted_ = 0;  // leading rows already sorted and distinct
  std::size_t limit_ = kMinCompact;  // rows held before the next compaction
  std::vector<Value> values_;
};

/// The rows of a relation as a random-access range of row views.
class Rows {
 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = TupleRef;
    using difference_type = std::ptrdiff_t;
    using reference = TupleRef;
    using pointer = void;

    iterator() = default;

    TupleRef operator*() const { return TupleRef(row_, arity_); }
    TupleRef operator[](difference_type n) const { return *(*this + n); }
    iterator& operator++() { return *this += 1; }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    iterator& operator--() { return *this -= 1; }
    iterator operator--(int) {
      iterator old = *this;
      --*this;
      return old;
    }
    iterator& operator+=(difference_type n) {
      row_ += n * static_cast<difference_type>(arity_);
      index_ += n;
      return *this;
    }
    iterator& operator-=(difference_type n) { return *this += -n; }
    friend iterator operator+(iterator it, difference_type n) {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(iterator a, iterator b) {
      return a.index_ - b.index_;
    }
    friend bool operator==(iterator a, iterator b) {
      return a.index_ == b.index_;
    }
    friend bool operator<(iterator a, iterator b) {
      return a.index_ < b.index_;
    }
    friend bool operator>(iterator a, iterator b) { return b < a; }
    friend bool operator<=(iterator a, iterator b) { return !(b < a); }
    friend bool operator>=(iterator a, iterator b) { return !(a < b); }

   private:
    friend class Rows;
    iterator(const Value* row, std::size_t arity, difference_type index)
        : row_(row), arity_(arity), index_(index) {}

    const Value* row_ = nullptr;
    std::size_t arity_ = 0;
    // Rows of arity zero share one address, so positions are counted.
    difference_type index_ = 0;
  };
  using const_iterator = iterator;
  using value_type = TupleRef;
  using size_type = std::size_t;

  Rows(const Value* data, std::size_t arity, std::size_t size)
      : data_(data), arity_(arity), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  TupleRef operator[](std::size_t i) const {
    return TupleRef(data_ + i * arity_, arity_);
  }
  TupleRef front() const { return (*this)[0]; }
  iterator begin() const { return iterator(data_, arity_, 0); }
  iterator end() const {
    return iterator(data_ + size_ * arity_, arity_,
                    static_cast<std::ptrdiff_t>(size_));
  }

 private:
  const Value* data_;
  std::size_t arity_;
  std::size_t size_;
};

/// A finite relation: a set of tuples of a fixed arity. Arity-zero relations
/// are the paper's *propositions*: they hold either the empty tuple (true) or
/// nothing (false).
///
/// The rows are stored as one row-major array of values, sorted
/// lexicographically and deduplicated, so equality, subset tests and set
/// operations are linear merges and iteration order is deterministic. A row
/// count beside the array tells a true proposition from a false one.
class Relation {
 public:
  /// An empty relation of the given arity.
  explicit Relation(int arity = 0) : arity_(arity) {}

  /// The relation of the buffer's rows, sorted and deduplicated once.
  explicit Relation(RowBuffer rows);

  /// A relation initialised with the given tuples (each must match `arity`).
  Relation(int arity, const std::vector<Tuple>& tuples);

  int arity() const { return arity_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// The rows in sorted order, as views valid until the next modification.
  Rows tuples() const {
    return Rows(values_.data(), static_cast<std::size_t>(arity_), size_);
  }

  /// Inserts a row; returns true if it was new. Arity-checked. The row may
  /// be one of this relation's own.
  bool Insert(TupleRef t);

  /// Membership test (binary search).
  bool Contains(TupleRef t) const;

  /// Removes a row if present; returns true if it was present. The row may
  /// be one of this relation's own.
  bool Erase(TupleRef t);

  /// Adds every row of `batch` (same arity) with one linear merge and
  /// returns the rows that were not already present.
  Relation InsertNew(Relation batch);

  /// For propositions (arity 0): truth value.
  bool AsBool() const;

  /// Sets a proposition's truth value. Arity must be 0.
  void SetBool(bool value);

  /// Adds every value appearing in any tuple to `out`.
  void CollectActiveDomain(std::set<Value>& out) const;

  /// The relation obtained by applying `map` to every value of every tuple.
  /// Tuples that collide after mapping are merged (set semantics).
  Relation Apply(const std::function<Value(Value)>& map) const;

  /// Set union / intersection / difference with a same-arity relation.
  Relation Union(const Relation& other) const;
  Relation Intersect(const Relation& other) const;
  Relation Difference(const Relation& other) const;

  /// True if every tuple of this relation is in `other`.
  bool IsSubsetOf(const Relation& other) const;

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.arity_ == b.arity_ && a.size_ == b.size_ &&
           a.values_ == b.values_;
  }
  friend bool operator!=(const Relation& a, const Relation& b) {
    return !(a == b);
  }
  /// Orders by arity, then as the sequences of their sorted rows.
  friend bool operator<(const Relation& a, const Relation& b) {
    if (a.arity_ != b.arity_) return a.arity_ < b.arity_;
    if (a.values_ != b.values_) return a.values_ < b.values_;
    return a.size_ < b.size_;
  }

  /// Renders as "{(…), (…)}" (or "true"/"false" for propositions).
  std::string ToString() const;

 private:
  // The rows of `a` and `b` (same arity) kept by the flags: those only in
  // `a`, those in both, those only in `b`. One linear merge.
  static Relation Merge(const Relation& a, const Relation& b, bool a_only,
                        bool both, bool b_only);
  // First row index in [from, end) whose row is not less than `t`, found by
  // galloping from `from`: O(log distance).
  std::size_t LowerBound(const Value* t, std::size_t from,
                         std::size_t end) const;
  const Value* Row(std::size_t i) const {
    return values_.data() + i * static_cast<std::size_t>(arity_);
  }

  int arity_;
  std::size_t size_ = 0;
  std::vector<Value> values_;  // size_ rows of arity_ values: sorted, unique
};

}  // namespace vqdr

#endif  // VQDR_DATA_RELATION_H_
