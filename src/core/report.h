#ifndef VQDR_CORE_REPORT_H_
#define VQDR_CORE_REPORT_H_

#include <optional>
#include <string>

#include "core/determinacy.h"
#include "core/finite_search.h"
#include "cq/conjunctive_query.h"
#include "memo/memo.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "views/view_set.h"

namespace vqdr {

/// The combined verdict the theory permits for finite determinacy of CQ
/// views and query (the problem itself is open/undecidable in general —
/// Theorems 4.5 and 5.11).
enum class DeterminacyVerdict {
  /// Unrestricted determinacy holds — a sound *proof* of finite
  /// determinacy, with a CQ rewriting attached.
  kDeterminedWithRewriting,
  /// A finite counterexample pair was found — finite determinacy refuted.
  kRefuted,
  /// Neither: not determined in the unrestricted sense and no finite
  /// counterexample within the search bound. For CQs this is the open
  /// territory of Theorem 5.11.
  kOpenWithinBound,
};

/// Options for the battery.
struct DeterminacyAnalysisOptions {
  /// Bound for the counterexample search.
  EnumerationOptions search;
  /// Also probe Q_V monotonicity when determinacy holds on the searched
  /// fragment (Theorem 5.11(3) evidence).
  bool probe_monotonicity = true;
  /// Optional resource budget: one envelope over the whole battery (chase
  /// decision, searches, probes). Takes effect everywhere search.budget
  /// would and in the chase decision too; when both are set, this one wins.
  /// nullptr = ungoverned.
  guard::Budget* budget = nullptr;

  /// Collect decision provenance into DeterminacyReport::explain: the chase
  /// decision's witness or refuting inverse, every counterexample pair the
  /// searches surface, memo probes, and a closing note naming the verdict.
  /// See DESIGN.md §10.
  bool explain = false;
};

/// Everything the library can say about one (V, Q) pair, assembled.
struct DeterminacyReport {
  DeterminacyVerdict verdict = DeterminacyVerdict::kOpenWithinBound;

  /// The exact unrestricted decision (Theorem 3.7).
  UnrestrictedDeterminacyResult unrestricted;

  /// A minimised CQ rewriting when one exists.
  std::optional<ConjunctiveQuery> rewriting;

  /// The refuting pair when the search found one.
  std::optional<DeterminacyCounterexample> counterexample;

  /// A Q_V monotonicity violation on the searched fragment, if probed and
  /// found (evidence on Theorem 5.11(3)).
  std::optional<MonotonicityViolation> monotonicity_violation;

  /// Whether the bounded searches covered their spaces.
  bool searches_exhaustive = true;

  /// Why the battery ended: kComplete for a full run, otherwise the first
  /// budget stop reason encountered. A non-complete outcome never comes
  /// with a fabricated verdict — a budget-stopped unrestricted decision
  /// reports kOpenWithinBound with searches_exhaustive == false, and a
  /// stopped search leaves whatever sound verdict was already established.
  guard::Outcome outcome = guard::Outcome::kComplete;

  /// Observability counters/histograms attributed to this analysis (the
  /// metrics delta across the battery): chase.*, cq.hom.*, search.*, ...
  obs::MetricsSnapshot metrics;

  /// Memoization activity attributed to this analysis (the process-wide
  /// store's delta across the battery). All-zero when memoization is
  /// disabled.
  memo::StatsSnapshot memo;

  /// Decision provenance (populated when opts.explain was set; empty
  /// otherwise). Serialize with explain.ToJson().
  obs::ExplainLog explain;

  /// One-paragraph human-readable summary, ending with "[metrics] ..." /
  /// "[memo] ..." blocks when the analysis recorded any.
  std::string Summary() const;
};

/// Runs the full battery: the chase decision, rewriting synthesis, bounded
/// counterexample search, and the optional monotonicity probe.
DeterminacyReport AnalyzeDeterminacy(const ViewSet& views,
                                     const ConjunctiveQuery& q,
                                     const Schema& base,
                                     const DeterminacyAnalysisOptions& opts);

/// *Instance-based* determinacy (the future direction named in the paper's
/// conclusion): relative to a given view extent E, do all pre-images of E
/// agree on Q? Decidable for CQ views by bounding the pre-image domain;
/// budgeted here.
struct InstanceDeterminacyResult {
  /// No pre-image of E within the budget (E off-image or budget too small).
  bool any_preimage = false;
  /// All pre-images found agree on Q.
  bool determined_on_instance = true;
  bool exhaustive = true;
  /// The common answer when determined.
  Relation answer{0};
  std::optional<std::pair<Instance, Instance>> disagreement;
};
InstanceDeterminacyResult DecideInstanceDeterminacy(
    const ViewSet& views, const Query& q, const Schema& base,
    const Instance& extent, int extra_values, std::uint64_t max_instances);

}  // namespace vqdr

#endif  // VQDR_CORE_REPORT_H_
