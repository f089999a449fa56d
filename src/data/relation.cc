#include "data/relation.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <sstream>

#include "base/check.h"

namespace vqdr {

namespace {

// Three-way comparison of two rows of `arity` values.
inline int CompareRows(const Value* a, const Value* b, std::size_t arity) {
  for (std::size_t i = 0; i < arity; ++i) {
    if (a[i].id != b[i].id) return a[i].id < b[i].id ? -1 : 1;
  }
  return 0;
}

bool StrictlySorted(const Value* data, std::size_t arity, std::size_t rows) {
  for (std::size_t i = 1; i < rows; ++i) {
    if (CompareRows(data + (i - 1) * arity, data + i * arity, arity) >= 0) {
      return false;
    }
  }
  return true;
}

// Sorts `rows` rows of K values in place, viewed as fixed-size rows, and
// moves the distinct ones to the front; returns how many there are. The
// first `sorted` rows are already sorted and distinct, so only the rest are
// sorted and then merged with them.
template <std::size_t K>
std::size_t SortUniqueFixed(Value* data, std::size_t rows,
                            std::size_t sorted) {
  using Row = std::array<Value, K>;
  static_assert(sizeof(Row) == K * sizeof(Value) &&
                alignof(Row) == alignof(Value));
  auto less = [](const Row& a, const Row& b) {
    return CompareRows(a.data(), b.data(), K) < 0;
  };
  Row* first = reinterpret_cast<Row*>(data);
  Row* middle = first + sorted;
  Row* last = first + rows;
  std::sort(middle, last, less);
  std::inplace_merge(first, middle, last, less);
  return static_cast<std::size_t>(
      std::unique(first, last, [](const Row& a, const Row& b) {
        return CompareRows(a.data(), b.data(), K) == 0;
      }) -
      first);
}

// SortUniqueFixed for wider rows: sorts a permutation of row indices and
// gathers the distinct rows into a new array.
std::size_t SortUniqueByIndex(std::vector<Value>& values, std::size_t arity,
                              std::size_t rows) {
  std::vector<std::uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0u);
  const Value* data = values.data();
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return CompareRows(data + a * arity, data + b * arity, arity) < 0;
  });
  std::vector<Value> sorted;
  sorted.reserve(values.size());
  std::size_t distinct = 0;
  for (std::uint32_t i : order) {
    const Value* row = data + i * arity;
    if (distinct > 0 &&
        CompareRows(sorted.data() + (distinct - 1) * arity, row, arity) == 0) {
      continue;
    }
    sorted.insert(sorted.end(), row, row + arity);
    ++distinct;
  }
  values = std::move(sorted);
  return distinct;
}

}  // namespace

void RowBuffer::Reserve(std::size_t rows) {
  values_.reserve(rows * static_cast<std::size_t>(arity_));
  limit_ = std::max(limit_, rows);
}

Value* RowBuffer::AppendRow() {
  if (rows_ >= limit_) {
    SortUnique();
    limit_ = std::max(kMinCompact, 2 * rows_);
  }
  ++rows_;
  std::size_t at = values_.size();
  values_.resize(at + static_cast<std::size_t>(arity_));
  return values_.data() + at;
}

void RowBuffer::Append(TupleRef row) {
  VQDR_CHECK_EQ(static_cast<int>(row.size()), arity_)
      << "tuple arity mismatch in row buffer";
  std::copy(row.begin(), row.end(), AppendRow());
}

void RowBuffer::SortUnique() {
  const std::size_t arity = static_cast<std::size_t>(arity_);
  if (arity == 0) {
    rows_ = std::min<std::size_t>(rows_, 1);
    return;
  }
  // The rows after the sorted prefix, and the last row of the prefix.
  const std::size_t from = sorted_ == 0 ? 0 : sorted_ - 1;
  if (!StrictlySorted(values_.data() + from * arity, arity, rows_ - from)) {
    switch (arity) {
      case 1:
        rows_ = SortUniqueFixed<1>(values_.data(), rows_, sorted_);
        break;
      case 2:
        rows_ = SortUniqueFixed<2>(values_.data(), rows_, sorted_);
        break;
      case 3:
        rows_ = SortUniqueFixed<3>(values_.data(), rows_, sorted_);
        break;
      case 4:
        rows_ = SortUniqueFixed<4>(values_.data(), rows_, sorted_);
        break;
      default:
        rows_ = SortUniqueByIndex(values_, arity, rows_);
        break;
    }
    values_.resize(rows_ * arity);
  }
  sorted_ = rows_;
}

Relation::Relation(RowBuffer rows) : arity_(rows.arity_) {
  rows.SortUnique();
  size_ = rows.rows_;
  values_ = std::move(rows.values_);
}

Relation::Relation(int arity, const std::vector<Tuple>& tuples)
    : arity_(arity) {
  RowBuffer rows(arity);
  rows.Reserve(tuples.size());
  for (const Tuple& t : tuples) rows.Append(t);
  *this = Relation(std::move(rows));
}

std::size_t Relation::LowerBound(const Value* t, std::size_t from,
                                 std::size_t end) const {
  const std::size_t arity = static_cast<std::size_t>(arity_);
  // Gallop: double the step until a row not less than `t` bounds the range.
  std::size_t lo = from;
  std::size_t hi = from;
  for (std::size_t step = 1; hi < end && CompareRows(Row(hi), t, arity) < 0;
       step *= 2) {
    lo = hi + 1;
    hi = std::min(end, hi + step);
  }
  // Every row before `lo` is less than `t`; `hi` is `end` or not less.
  std::size_t n = hi - lo;
  while (n > 0) {
    std::size_t half = n / 2;
    if (CompareRows(Row(lo + half), t, arity) < 0) {
      lo += half + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  return lo;
}

bool Relation::Insert(TupleRef t) {
  VQDR_CHECK_EQ(static_cast<int>(t.size()), arity_)
      << "tuple arity mismatch on insert";
  std::size_t i = LowerBound(t.data(), 0, size_);
  if (i < size_ && CompareRows(Row(i), t.data(), t.size()) == 0) return false;
  // Every row of this relation is present, so `t` is not one of them and
  // growing the array cannot move it.
  values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(i * t.size()),
                 t.begin(), t.end());
  ++size_;
  return true;
}

bool Relation::Contains(TupleRef t) const {
  if (static_cast<int>(t.size()) != arity_) return false;
  std::size_t i = LowerBound(t.data(), 0, size_);
  return i < size_ && CompareRows(Row(i), t.data(), t.size()) == 0;
}

bool Relation::Erase(TupleRef t) {
  if (static_cast<int>(t.size()) != arity_) return false;
  std::size_t i = LowerBound(t.data(), 0, size_);
  if (i == size_ || CompareRows(Row(i), t.data(), t.size()) != 0) return false;
  // `t` is not read past this point, so it may be the row being erased.
  auto first = values_.begin() + static_cast<std::ptrdiff_t>(i * t.size());
  values_.erase(first, first + static_cast<std::ptrdiff_t>(t.size()));
  --size_;
  return true;
}

Relation Relation::InsertNew(Relation batch) {
  VQDR_CHECK_EQ(arity_, batch.arity_) << "arity mismatch in InsertNew";
  if (empty()) {
    *this = batch;
    return batch;
  }
  const std::size_t arity = static_cast<std::size_t>(arity_);
  // Keep the rows of `batch` this relation lacks, compacted to its front.
  std::size_t kept = 0;
  std::size_t i = 0;
  for (std::size_t j = 0; j < batch.size_; ++j) {
    const Value* row = batch.Row(j);
    i = LowerBound(row, i, size_);
    if (i < size_ && CompareRows(Row(i), row, arity) == 0) continue;
    if (kept != j) {
      std::copy(row, row + arity, batch.values_.begin() +
                                      static_cast<std::ptrdiff_t>(kept * arity));
    }
    ++kept;
  }
  batch.size_ = kept;
  batch.values_.resize(kept * arity);
  if (kept == 0) return batch;

  // Place the new rows from the largest down: the rows of this relation
  // above each one move up in one block, so nothing moves twice.
  std::size_t unplaced = size_;
  size_ += kept;
  values_.resize(size_ * arity);
  auto at = [&](std::size_t row) {
    return values_.begin() + static_cast<std::ptrdiff_t>(row * arity);
  };
  for (std::size_t b = kept; b > 0; --b) {
    const Value* row = batch.Row(b - 1);
    std::size_t pos = LowerBound(row, 0, unplaced);
    std::copy_backward(at(pos), at(unplaced), at(unplaced + b));
    std::copy(row, row + arity, at(pos + b - 1));
    unplaced = pos;
  }
  return batch;
}

bool Relation::AsBool() const {
  VQDR_CHECK_EQ(arity_, 0) << "AsBool on non-proposition";
  return size_ != 0;
}

void Relation::SetBool(bool value) {
  VQDR_CHECK_EQ(arity_, 0) << "SetBool on non-proposition";
  size_ = value ? 1 : 0;
}

void Relation::CollectActiveDomain(std::set<Value>& out) const {
  out.insert(values_.begin(), values_.end());
}

Relation Relation::Apply(const std::function<Value(Value)>& map) const {
  RowBuffer mapped(arity_);
  mapped.Reserve(size_);
  for (TupleRef t : tuples()) {
    Value* row = mapped.AppendRow();
    for (Value v : t) *row++ = map(v);
  }
  return Relation(std::move(mapped));
}

Relation Relation::Merge(const Relation& a, const Relation& b, bool a_only,
                         bool both, bool b_only) {
  VQDR_CHECK_EQ(a.arity_, b.arity_) << "arity mismatch in set operation";
  const std::size_t arity = static_cast<std::size_t>(a.arity_);
  Relation result(a.arity_);
  result.values_.reserve(
      ((a_only || both ? a.size_ : 0) + (b_only ? b.size_ : 0)) * arity);
  auto keep = [&](const Value* row) {
    result.values_.insert(result.values_.end(), row, row + arity);
    ++result.size_;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size_ && j < b.size_) {
    int c = CompareRows(a.Row(i), b.Row(j), arity);
    if (c < 0) {
      if (a_only) keep(a.Row(i));
      ++i;
    } else if (c > 0) {
      if (b_only) keep(b.Row(j));
      ++j;
    } else {
      if (both) keep(a.Row(i));
      ++i;
      ++j;
    }
  }
  for (; a_only && i < a.size_; ++i) keep(a.Row(i));
  for (; b_only && j < b.size_; ++j) keep(b.Row(j));
  return result;
}

Relation Relation::Union(const Relation& other) const {
  return Merge(*this, other, true, true, true);
}

Relation Relation::Intersect(const Relation& other) const {
  return Merge(*this, other, false, true, false);
}

Relation Relation::Difference(const Relation& other) const {
  return Merge(*this, other, true, false, false);
}

bool Relation::IsSubsetOf(const Relation& other) const {
  VQDR_CHECK_EQ(arity_, other.arity_) << "arity mismatch in IsSubsetOf";
  const std::size_t arity = static_cast<std::size_t>(arity_);
  std::size_t j = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    j = other.LowerBound(Row(i), j, other.size_);
    if (j == other.size_ || CompareRows(other.Row(j), Row(i), arity) != 0) {
      return false;
    }
    ++j;
  }
  return true;
}

std::string Relation::ToString() const {
  if (arity_ == 0) return size_ == 0 ? "false" : "true";
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < size_; ++i) {
    if (i > 0) out << ", ";
    out << TupleToString(tuples()[i]);
  }
  out << "}";
  return out.str();
}

}  // namespace vqdr
