#include "search_oracle.h"

#include <map>
#include <string>
#include <vector>

#include "guard/fault.h"

namespace vqdr::oracle {

DeterminacySearchResult SearchDeterminacyCounterexample(
    const ViewSet& views, const Query& q, const Schema& base,
    const EnumerationOptions& options) {
  DeterminacySearchResult result;
  std::uint64_t examined = 0;

  // First instance and query answer seen per view-image key.
  struct GroupInfo {
    Instance first{Schema{}};
    Relation answer{0};
  };
  std::map<std::string, GroupInfo> groups;

  EnumerationOutcome outcome;
  try {
    outcome = ForEachInstance(base, options, [&](const Instance& d) {
      ++examined;
      VQDR_FAULT_ALLOC("search.instances");
      Instance image = views.Apply(d);
      std::string key = image.ToKey();
      Relation answer = q.Eval(d);
      auto it = groups.find(key);
      if (it == groups.end()) {
        groups.emplace(key, GroupInfo{d, answer});
        return true;
      }
      if (it->second.answer != answer) {
        result.verdict = SearchVerdict::kCounterexampleFound;
        result.counterexample =
            DeterminacyCounterexample{it->second.first, d};
        return false;
      }
      return true;
    });
  } catch (...) {
    // The throwing instance did not finish, so it is not part of the
    // examined prefix.
    if (options.budget != nullptr) options.budget->MarkInternalError();
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.outcome = guard::Outcome::kInternalError;
    result.instances_examined = examined - 1;
    return result;
  }
  result.instances_examined = examined;
  if (result.verdict != SearchVerdict::kCounterexampleFound &&
      !outcome.complete) {
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.outcome = outcome.outcome;
  }
  return result;
}

MonotonicitySearchResult SearchMonotonicityViolation(
    const ViewSet& views, const Query& q, const Schema& base,
    const EnumerationOptions& options) {
  MonotonicitySearchResult result;
  std::uint64_t examined = 0;

  struct Entry {
    Instance d{Schema{}};
    Instance image{Schema{}};
    Relation answer{0};
  };
  std::vector<Entry> entries;

  EnumerationOutcome outcome;
  try {
    outcome = ForEachInstance(base, options, [&](const Instance& d) {
      ++examined;
      VQDR_FAULT_ALLOC("search.instances");
      entries.push_back(Entry{d, views.Apply(d), q.Eval(d)});
      return true;
    });
  } catch (...) {
    if (options.budget != nullptr) options.budget->MarkInternalError();
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.outcome = guard::Outcome::kInternalError;
    result.instances_examined = examined - 1;
    return result;
  }
  result.instances_examined = examined;

  for (const Entry& a : entries) {
    guard::Outcome check = guard::Check(options.budget);
    if (!guard::IsComplete(check)) {
      result.verdict = SearchVerdict::kBudgetExhausted;
      result.outcome = check;
      return result;
    }
    for (const Entry& b : entries) {
      if (&a == &b) continue;
      if (!a.image.IsSubInstanceOf(b.image)) continue;
      if (!a.answer.IsSubsetOf(b.answer)) {
        result.verdict = SearchVerdict::kCounterexampleFound;
        result.violation = MonotonicityViolation{a.d, b.d, a.image, b.image};
        return result;
      }
    }
  }
  if (!outcome.complete) {
    result.verdict = SearchVerdict::kBudgetExhausted;
    result.outcome = outcome.outcome;
  }
  return result;
}

}  // namespace vqdr::oracle
