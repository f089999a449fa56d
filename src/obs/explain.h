#ifndef VQDR_OBS_EXPLAIN_H_
#define VQDR_OBS_EXPLAIN_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <mutex>

// Decision provenance for the solver stack. Engines that accept an
// `obs::ExplainLog*` append typed events describing *why* they answered:
// the witness homomorphism behind a containment verdict, the pattern
// instance behind a refutation, per-level chase sizes and fresh-null
// counts, the counterexample pair behind a finite-search refutation, memo
// hits, guard outcomes. The log serializes to a JSON artifact
// (`determinacy_tool --explain=out.json`) and parses back, and recorded
// witnesses re-verify by replay: ExplainWitness::Verify checks every
// binding-image fact against the recorded instance independently of the
// engine that produced it.
//
// Layering: obs sits below cq/data, so payloads here are generic —
// relations are strings, values are the int64 ids of data::Value. The
// cq-side conversion lives in cq/explain_bridge.h.

namespace vqdr::obs {

/// One ground fact of a recorded instance: relation name + value ids.
struct ExplainFact {
  std::string relation;
  std::vector<std::int64_t> tuple;

  bool operator==(const ExplainFact& o) const {
    return relation == o.relation && tuple == o.tuple;
  }
};

/// A query term: a named variable or a constant value id.
struct ExplainTerm {
  bool is_var = false;
  std::string var;          // meaningful when is_var
  std::int64_t value = 0;   // meaningful when !is_var

  static ExplainTerm Var(std::string name) {
    ExplainTerm t;
    t.is_var = true;
    t.var = std::move(name);
    return t;
  }
  static ExplainTerm Const(std::int64_t v) {
    ExplainTerm t;
    t.value = v;
    return t;
  }
};

/// One query atom: relation applied to terms.
struct ExplainAtom {
  std::string relation;
  std::vector<ExplainTerm> args;
};

/// A containment/decision witness: the homomorphism `binding` from the
/// query (atoms/head/disequalities) into `instance`, with the head tuple
/// it was required to produce. Self-contained — Verify replays it without
/// any engine code.
struct ExplainWitness {
  std::vector<ExplainAtom> atoms;
  std::vector<ExplainTerm> head;
  /// Disequality constraints (CQ(!=)); each pair must resolve to distinct
  /// values under the binding.
  std::vector<std::pair<ExplainTerm, ExplainTerm>> disequalities;
  /// Variable name -> value id. Must cover every variable in atoms/head.
  std::map<std::string, std::int64_t> binding;
  /// The target instance the homomorphism maps into.
  std::vector<ExplainFact> instance;
  /// The head tuple the engine claimed; Verify checks head resolves to it.
  std::vector<std::int64_t> expected_head;

  /// Replays the homomorphism: every atom's binding image must be a fact
  /// of `instance`, the head must resolve to `expected_head`, and every
  /// disequality must hold. On failure returns false and, if `error` is
  /// non-null, says which check broke.
  bool Verify(std::string* error = nullptr) const;
};

enum class ExplainKind {
  kNote,            // freeform annotation
  kChaseLevel,      // one level of the Theorem 3.3 chase chain
  kDecision,        // the final verdict of a decision procedure
  kWitness,         // a verdict backed by a homomorphism witness
  kRefutation,      // a containment pattern that failed (instance attached)
  kCounterexample,  // a finite-search counterexample instance (pair)
  kMemo,            // memo hit/miss for a decision subproblem
  kGuard,           // guard/budget outcome attribution
};

/// Stable lowercase name for serialization ("note", "chase_level", ...).
const char* ExplainKindName(ExplainKind kind);

/// Parses ExplainKindName output back; nullopt on unknown names.
std::optional<ExplainKind> ExplainKindFromName(std::string_view name);

/// One provenance event. `label` identifies the site ("cq.sub.pattern",
/// "determinacy.decision"); `stats` carries small named numbers (level,
/// sizes, fresh nulls); witness/instance/instance2 are optional payloads.
struct ExplainEvent {
  ExplainKind kind = ExplainKind::kNote;
  std::string label;
  std::string detail;
  std::map<std::string, std::int64_t> stats;
  std::optional<ExplainWitness> witness;
  /// Kind-dependent instance payload: the refuting pattern instance, or
  /// the first instance of a counterexample pair.
  std::vector<ExplainFact> instance;
  /// Second instance of a counterexample pair (agrees on views, differs
  /// on the query).
  std::vector<ExplainFact> instance2;
};

/// A thread-safe, copyable append log of ExplainEvents. Engines append
/// under an internal mutex (callers on several threads may share one log);
/// readers take a snapshot copy. Carried by value on DeterminacyReport.
class ExplainLog {
 public:
  ExplainLog() = default;
  ExplainLog(const ExplainLog& other);
  ExplainLog& operator=(const ExplainLog& other);
  ExplainLog(ExplainLog&& other) noexcept;
  ExplainLog& operator=(ExplainLog&& other) noexcept;

  void Append(ExplainEvent event);
  /// Shorthand for a kNote event.
  void Note(std::string label, std::string detail = "");

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  void Clear();

  /// Snapshot copy of the events, in append order.
  std::vector<ExplainEvent> events() const;

  /// {"explain":1,"events":[...]} — deterministic, self-contained.
  std::string ToJson() const;

  /// Parses ToJson output. Returns nullopt (with *error set, if given) on
  /// malformed input.
  static std::optional<ExplainLog> FromJson(std::string_view text,
                                            std::string* error = nullptr);

 private:
  mutable std::mutex mu_;
  std::vector<ExplainEvent> events_;
};

/// True when a log is attached. Recording sites guard with
/// `if (obs::Wants(log)) {...}` so unexplained calls pay one null test.
inline bool Wants(const ExplainLog* log) { return log != nullptr; }

}  // namespace vqdr::obs

#endif  // VQDR_OBS_EXPLAIN_H_
