// Budget classes and budget composition (guard/classes.h, DESIGN.md §13):
// TightenSpec's tightest-limit-wins algebra, admission-slot accounting, the
// class table's default fallback, and the envelope/child Budget composition
// the batch handler and the service admission path rely on — the tightest
// limit wins, a parent's sticky stop propagates into its children, one
// exhausted child never stops its siblings. The threaded cases repeat at
// {1, 2, 8} threads so the same invariants hold under contention.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "guard/budget.h"
#include "guard/classes.h"
#include "guard/outcome.h"

namespace vqdr::guard {
namespace {

TEST(TightenSpec, TightestLimitWinsFieldwise) {
  BudgetSpec a;
  a.wall_ms = 100;
  a.max_steps = 50;
  a.max_atoms = 0;   // unlimited
  a.max_chase_levels = -1;  // unlimited
  BudgetSpec b;
  b.wall_ms = 200;
  b.max_steps = 0;   // unlimited
  b.max_atoms = 10;
  b.max_chase_levels = 3;

  BudgetSpec t = TightenSpec(a, b);
  EXPECT_EQ(t.wall_ms, 100);       // both limited: min
  EXPECT_EQ(t.max_steps, 50u);     // limited beats unlimited
  EXPECT_EQ(t.max_atoms, 10u);     // limited beats unlimited
  EXPECT_EQ(t.max_chase_levels, 3);

  // Symmetric.
  BudgetSpec s = TightenSpec(b, a);
  EXPECT_EQ(s.wall_ms, 100);
  EXPECT_EQ(s.max_steps, 50u);
  EXPECT_EQ(s.max_atoms, 10u);
  EXPECT_EQ(s.max_chase_levels, 3);
}

TEST(TightenSpec, UnlimitedBothStaysUnlimited) {
  BudgetSpec t = TightenSpec(BudgetSpec{}, BudgetSpec{});
  EXPECT_EQ(t.wall_ms, -1);
  EXPECT_EQ(t.max_steps, 0u);
  EXPECT_EQ(t.max_atoms, 0u);
  EXPECT_EQ(t.max_chase_levels, -1);
}

TEST(BudgetClass, SlotAccounting) {
  BudgetClassSpec spec;
  spec.name = "gold";
  spec.max_concurrent = 2;
  spec.retry_after_ms = 7;
  BudgetClass cls(std::move(spec));

  EXPECT_TRUE(cls.TryAcquire());
  EXPECT_TRUE(cls.TryAcquire());
  EXPECT_FALSE(cls.TryAcquire());  // at max_concurrent
  EXPECT_EQ(cls.in_flight(), 2);
  EXPECT_EQ(cls.admitted(), 2u);
  EXPECT_EQ(cls.rejected(), 1u);

  cls.Release();
  EXPECT_TRUE(cls.TryAcquire());  // slot freed
  cls.Release();
  cls.Release();
  EXPECT_EQ(cls.in_flight(), 0);
}

TEST(BudgetClass, ZeroMeansUnlimitedConcurrency) {
  BudgetClassSpec spec;
  spec.name = "open";
  BudgetClass cls(std::move(spec));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(cls.TryAcquire());
  EXPECT_EQ(cls.rejected(), 0u);
  for (int i = 0; i < 100; ++i) cls.Release();
}

TEST(BudgetClass, GrantClampsToClassCap) {
  BudgetClassSpec spec;
  spec.name = "capped";
  spec.cap.max_steps = 100;
  spec.cap.wall_ms = 1000;
  BudgetClass cls(std::move(spec));

  BudgetSpec asked;
  asked.max_steps = 1000000;  // more than the class allows
  asked.max_atoms = 5;        // tighter than the class
  BudgetSpec granted = cls.Grant(asked);
  EXPECT_EQ(granted.max_steps, 100u);
  EXPECT_EQ(granted.wall_ms, 1000);
  EXPECT_EQ(granted.max_atoms, 5u);
}

TEST(BudgetClassTable, DefaultAlwaysResolvable) {
  BudgetClassTable table;
  EXPECT_NE(table.Find("default"), nullptr);
  EXPECT_EQ(table.Find("nope"), nullptr);
  EXPECT_EQ(&table.Resolve(""), table.Find("default"));
  EXPECT_EQ(&table.Resolve("nope"), table.Find("default"));

  BudgetClassSpec gold;
  gold.name = "gold";
  gold.max_concurrent = 1;
  table.Define(std::move(gold));
  EXPECT_EQ(&table.Resolve("gold"), table.Find("gold"));
  EXPECT_EQ(table.Names().size(), 2u);

  // Redefining "default" imposes a baseline policy.
  BudgetClassSpec def;
  def.name = "default";
  def.cap.max_steps = 10;
  table.Define(std::move(def));
  EXPECT_EQ(table.Resolve("").spec().cap.max_steps, 10u);
}

TEST(BudgetComposition, ChildTripsOnOwnTighterLimit) {
  guard::Budget envelope(BudgetSpec{});  // unlimited
  BudgetSpec tight;
  tight.max_steps = 3;
  guard::Budget child(tight, &envelope);

  EXPECT_EQ(child.Checkpoint(3), Outcome::kComplete);
  EXPECT_EQ(child.Checkpoint(1), Outcome::kStepBudgetExhausted);
  EXPECT_TRUE(child.Stopped());
  // One exhausted child never stops the envelope or its siblings.
  EXPECT_FALSE(envelope.Stopped());
  guard::Budget sibling(BudgetSpec{}, &envelope);
  EXPECT_EQ(sibling.Checkpoint(10), Outcome::kComplete);
}

TEST(BudgetComposition, EnvelopeLimitStopsEveryChild) {
  BudgetSpec env_spec;
  env_spec.max_steps = 10;
  guard::Budget envelope(env_spec);
  guard::Budget a(BudgetSpec{}, &envelope);
  guard::Budget b(BudgetSpec{}, &envelope);

  EXPECT_EQ(a.Checkpoint(10), Outcome::kComplete);  // envelope now full
  EXPECT_EQ(b.Checkpoint(1), Outcome::kStepBudgetExhausted);
  EXPECT_TRUE(envelope.Stopped());
  // The stop is sticky and visible from the other child's next checkpoint.
  EXPECT_EQ(a.Checkpoint(1), Outcome::kStepBudgetExhausted);
}

TEST(BudgetComposition, ParentCancelPropagatesSticky) {
  guard::Budget envelope;
  guard::Budget child(BudgetSpec{}, &envelope);
  EXPECT_EQ(child.Checkpoint(), Outcome::kComplete);
  envelope.Cancel();
  EXPECT_EQ(child.Checkpoint(), Outcome::kCancelled);
  EXPECT_EQ(child.stop_reason(), Outcome::kCancelled);
}

TEST(BudgetComposition, ChildChargesParentStepsAndAtoms) {
  guard::Budget envelope;
  guard::Budget a(BudgetSpec{}, &envelope);
  guard::Budget b(BudgetSpec{}, &envelope);
  ASSERT_EQ(a.Checkpoint(5), Outcome::kComplete);
  ASSERT_EQ(b.Checkpoint(7), Outcome::kComplete);
  ASSERT_EQ(a.NoteAtoms(11), Outcome::kComplete);
  EXPECT_EQ(envelope.steps_used(), 12u);
  EXPECT_EQ(envelope.atoms_used(), 11u);
  EXPECT_EQ(a.steps_used(), 5u);
  EXPECT_EQ(b.steps_used(), 7u);
}

TEST(BudgetComposition, AtomEnvelopeStopsSiblings) {
  BudgetSpec env_spec;
  env_spec.max_atoms = 10;
  guard::Budget envelope(env_spec);
  guard::Budget a(BudgetSpec{}, &envelope);
  guard::Budget b(BudgetSpec{}, &envelope);
  EXPECT_EQ(a.NoteAtoms(10), Outcome::kComplete);
  EXPECT_EQ(b.NoteAtoms(1), Outcome::kMemoryBudgetExhausted);
  EXPECT_EQ(a.NoteAtoms(1), Outcome::kMemoryBudgetExhausted);
}

// The same invariants under contention: N workers each charge their own
// child of a shared envelope until stopped. Regardless of thread count the
// envelope trips exactly once on its own limit, every child ends stopped
// with the envelope's reason, and the envelope's recorded steps overshoot
// its limit by at most one in-flight checkpoint per worker.
TEST(BudgetComposition, ThreadedEnvelopeDifferential) {
  for (int threads : {1, 2, 8}) {
    constexpr std::uint64_t kLimit = 10000;
    BudgetSpec env_spec;
    env_spec.max_steps = kLimit;
    guard::Budget envelope(env_spec);

    std::vector<std::unique_ptr<guard::Budget>> children;
    children.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      children.push_back(
          std::make_unique<guard::Budget>(BudgetSpec{}, &envelope));
    }

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&children, t] {
        while (children[t]->Checkpoint(1) == Outcome::kComplete) {
        }
      });
    }
    for (std::thread& w : workers) w.join();

    EXPECT_TRUE(envelope.Stopped()) << "threads=" << threads;
    EXPECT_EQ(envelope.stop_reason(), Outcome::kStepBudgetExhausted);
    std::uint64_t total_child_steps = 0;
    for (auto& child : children) {
      EXPECT_EQ(child->stop_reason(), Outcome::kStepBudgetExhausted)
          << "threads=" << threads;
      total_child_steps += child->steps_used();
    }
    // A child charges itself before the (already stopped) envelope declines
    // the charge, so the child total can exceed the envelope's by at most
    // one in-flight checkpoint per worker.
    EXPECT_GE(total_child_steps, envelope.steps_used());
    EXPECT_LE(total_child_steps,
              envelope.steps_used() + static_cast<std::uint64_t>(threads));
    EXPECT_GE(envelope.steps_used(), kLimit);
    EXPECT_LE(envelope.steps_used(),
              kLimit + static_cast<std::uint64_t>(threads));
  }
}

}  // namespace
}  // namespace vqdr::guard
