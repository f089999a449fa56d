#include "reductions/turing.h"

#include <algorithm>

#include "base/check.h"

namespace vqdr {

namespace {

// Tape symbols and head markers are domain constants, kept disjoint from
// order-domain values by a large offset.
constexpr std::int64_t kSymbolBase = 1'000'000;
constexpr std::int64_t kHeadBase = 2'000'000;

Value SymbolValue(char c) {
  return Value(kSymbolBase + static_cast<unsigned char>(c));
}

Value HeadValue(int state, char c) {
  return Value(kHeadBase + state * 256 + static_cast<unsigned char>(c));
}

bool IsSymbolValue(Value v) {
  return v.id >= kSymbolBase && v.id < kHeadBase;
}
bool IsHeadValue(Value v) { return v.id >= kHeadBase; }

char SymbolChar(Value v) {
  return static_cast<char>((v.id - kSymbolBase) & 0xff);
}
int HeadState(Value v) {
  return static_cast<int>((v.id - kHeadBase) / 256);
}
char HeadChar(Value v) {
  return static_cast<char>((v.id - kHeadBase) % 256);
}

}  // namespace

std::optional<SimpleTm::Transition> SimpleTm::Delta(int state,
                                                    char read) const {
  auto it = delta_.find({state, read});
  if (it == delta_.end()) return std::nullopt;
  return it->second;
}

StatusOr<std::vector<SimpleTm::Config>> SimpleTm::Run(const std::string& input,
                                                      int max_steps,
                                                      int max_tape) const {
  std::vector<Config> configs;
  Config current;
  current.state = start_state_;
  current.head = 0;
  current.tape = input;
  if (current.tape.empty()) current.tape.push_back(blank_);
  configs.push_back(current);

  for (int step = 0; step < max_steps; ++step) {
    if (IsHalting(current.state)) return configs;
    char read = current.tape[current.head];
    std::optional<Transition> t = Delta(current.state, read);
    if (!t.has_value()) {
      return Status::Error("machine hangs: no transition for state " +
                           std::to_string(current.state) + " reading '" +
                           std::string(1, read) + "'");
    }
    current.tape[current.head] = t->write;
    current.state = t->next_state;
    current.head += t->move;
    if (current.head < 0) {
      return Status::Error("head moved off the left end of the tape");
    }
    if (current.head >= static_cast<int>(current.tape.size())) {
      if (static_cast<int>(current.tape.size()) >= max_tape) {
        return Status::Error("tape budget exceeded");
      }
      current.tape.push_back(blank_);
    }
    configs.push_back(current);
  }
  if (IsHalting(current.state)) return configs;
  return Status::Error("step budget exceeded before halting");
}

SimpleTm ComplementTm() {
  // State 0: scan right, flipping bits; halt (state 1) on blank.
  SimpleTm tm(/*start_state=*/0, /*halt_states=*/{1});
  tm.AddTransition(0, '0', {0, '1', +1});
  tm.AddTransition(0, '1', {0, '0', +1});
  tm.AddTransition(0, '_', {1, '_', 0});
  return tm;
}

SimpleTm IdentityTm() {
  SimpleTm tm(/*start_state=*/0, /*halt_states=*/{0});
  return tm;
}

std::string EncodeGraph(const Relation& edges,
                        const std::vector<Value>& ranked) {
  VQDR_CHECK_EQ(edges.arity(), 2);
  std::map<Value, int> rank;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    rank[ranked[i]] = static_cast<int>(i);
  }
  std::size_t n = ranked.size();
  std::string enc(n * n, '0');
  for (TupleRef e : edges.tuples()) {
    auto i = rank.find(e[0]);
    auto j = rank.find(e[1]);
    VQDR_CHECK(i != rank.end() && j != rank.end())
        << "edge endpoint missing from ranking";
    enc[i->second * n + j->second] = '1';
  }
  return enc;
}

Relation DecodeGraph(const std::string& enc,
                     const std::vector<Value>& ranked) {
  std::size_t n = ranked.size();
  VQDR_CHECK_EQ(enc.size(), n * n);
  Relation edges(2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (enc[i * n + j] == '1') {
        edges.Insert(Tuple{ranked[i], ranked[j]});
      }
    }
  }
  return edges;
}

Schema TuringSchema() {
  return Schema{{"R1", 2}, {"R2", 2}, {"Le", 2}, {"T", 3}};
}

StatusOr<Instance> BuildComputationInstance(const SimpleTm& tm,
                                            const Relation& input_graph,
                                            int extra_elements) {
  // Ranked domain: adom(R1) first (sorted), then padding elements.
  std::set<Value> adom_set;
  input_graph.CollectActiveDomain(adom_set);
  std::vector<Value> ranked(adom_set.begin(), adom_set.end());
  std::size_t n0 = ranked.size();

  std::string input = EncodeGraph(input_graph, ranked);
  StatusOr<std::vector<SimpleTm::Config>> run =
      tm.Run(input, /*max_steps=*/static_cast<int>(4 * n0 * n0 + 64),
             /*max_tape=*/static_cast<int>(4 * n0 * n0 + 64));
  if (!run.ok()) return run.status();
  const std::vector<SimpleTm::Config>& configs = run.value();

  std::size_t tape_len = 0;
  for (const SimpleTm::Config& c : configs) {
    tape_len = std::max(tape_len, c.tape.size());
  }
  std::size_t needed = std::max(configs.size(), std::max(tape_len, n0));
  if (extra_elements >= 0) {
    if (n0 + extra_elements < needed) {
      return Status::Error("extra_elements too small for the computation");
    }
    needed = n0 + extra_elements;
  }
  // Padding values above every graph value.
  std::int64_t pad = ranked.empty() ? 1 : ranked.back().id + 1;
  while (ranked.size() < needed) ranked.push_back(Value(pad++));

  Instance d(TuringSchema());
  d.Set("R1", input_graph);

  Relation le(2);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    for (std::size_t j = i; j < ranked.size(); ++j) {
      le.Insert(Tuple{ranked[i], ranked[j]});
    }
  }
  d.Set("Le", le);

  Relation trace(3);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const SimpleTm::Config& c = configs[i];
    for (std::size_t j = 0; j < ranked.size(); ++j) {
      char ch = j < c.tape.size() ? c.tape[j] : tm.blank();
      Value cell = (static_cast<int>(j) == c.head) ? HeadValue(c.state, ch)
                                                   : SymbolValue(ch);
      trace.Insert(Tuple{ranked[i], ranked[j], cell});
    }
  }
  d.Set("T", trace);

  // Output: the final tape's first n0² cells decode to R2.
  const SimpleTm::Config& last = configs.back();
  std::string out = last.tape;
  out.resize(n0 * n0, tm.blank());
  d.Set("R2", DecodeGraph(out.substr(0, n0 * n0),
                          std::vector<Value>(ranked.begin(),
                                             ranked.begin() + n0)));
  return d;
}

bool VerifyComputationInstance(const SimpleTm& tm, const Instance& d) {
  const Relation& le = d.Get("Le");
  const Relation& r1 = d.Get("R1");
  const Relation& trace = d.Get("T");

  // -- Le is a linear order on its domain.
  std::set<Value> order_dom_set;
  le.CollectActiveDomain(order_dom_set);
  for (Value v : order_dom_set) {
    if (IsSymbolValue(v) || IsHeadValue(v)) return false;
    if (!le.Contains(Tuple{v, v})) return false;  // reflexive
  }
  std::vector<Value> order_dom(order_dom_set.begin(), order_dom_set.end());
  for (Value a : order_dom) {
    for (Value b : order_dom) {
      bool ab = le.Contains(Tuple{a, b});
      bool ba = le.Contains(Tuple{b, a});
      if (!ab && !ba) return false;                  // total
      if (ab && ba && a != b) return false;          // antisymmetric
      for (Value c : order_dom) {
        if (ab && le.Contains(Tuple{b, c}) && !le.Contains(Tuple{a, c})) {
          return false;  // transitive
        }
      }
    }
  }
  // Ranked order.
  std::vector<Value> ranked = order_dom;
  std::sort(ranked.begin(), ranked.end(), [&](Value a, Value b) {
    return a != b && le.Contains(Tuple{a, b});
  });

  // -- adom(R1) is an initial segment of the order.
  std::set<Value> graph_adom;
  r1.CollectActiveDomain(graph_adom);
  std::size_t n0 = graph_adom.size();
  if (n0 > ranked.size()) return false;
  for (std::size_t i = 0; i < n0; ++i) {
    if (graph_adom.count(ranked[i]) == 0) return false;
  }

  // -- T decodes to a sequence of configurations.
  std::map<Value, int> rank;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    rank[ranked[i]] = static_cast<int>(i);
  }
  std::size_t n = ranked.size();
  // grid[i][j]: the cell value, if present.
  std::vector<std::vector<std::optional<Value>>> grid(
      n, std::vector<std::optional<Value>>(n));
  for (TupleRef t : trace.tuples()) {
    auto i = rank.find(t[0]);
    auto j = rank.find(t[1]);
    if (i == rank.end() || j == rank.end()) return false;
    if (!IsSymbolValue(t[2]) && !IsHeadValue(t[2])) return false;
    if (grid[i->second][j->second].has_value()) return false;  // ambiguous
    grid[i->second][j->second] = t[2];
  }

  // Rows 0..m are fully populated configurations; rows past m must be
  // empty (the computation halted at row m).
  std::vector<SimpleTm::Config> configs;
  std::size_t row = 0;
  for (; row < n; ++row) {
    bool any = false, all = true;
    for (std::size_t j = 0; j < n; ++j) {
      if (grid[row][j].has_value()) {
        any = true;
      } else {
        all = false;
      }
    }
    if (!any) break;
    if (!all) return false;
    SimpleTm::Config c;
    c.head = -1;
    c.tape.resize(n, tm.blank());
    for (std::size_t j = 0; j < n; ++j) {
      Value cell = *grid[row][j];
      if (IsHeadValue(cell)) {
        if (c.head != -1) return false;  // two heads
        c.head = static_cast<int>(j);
        c.state = HeadState(cell);
        c.tape[j] = HeadChar(cell);
      } else {
        c.tape[j] = SymbolChar(cell);
      }
    }
    if (c.head == -1) return false;  // no head
    configs.push_back(std::move(c));
  }
  for (std::size_t r = row; r < n; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      if (grid[r][j].has_value()) return false;  // gap in the trace
    }
  }
  if (configs.empty()) return false;

  // -- Initial configuration: enc(R1) padded with blanks, head at cell 0,
  // start state.
  std::string enc =
      EncodeGraph(r1, std::vector<Value>(ranked.begin(), ranked.begin() + n0));
  {
    const SimpleTm::Config& c0 = configs.front();
    if (c0.state != tm.start_state() || c0.head != 0) return false;
    std::string expected = enc;
    expected.resize(n, tm.blank());
    if (expected.empty()) return false;
    if (c0.tape != expected) return false;
  }

  // -- Each successive configuration follows by one transition; the last
  // one is halting.
  for (std::size_t i = 0; i + 1 < configs.size(); ++i) {
    const SimpleTm::Config& cur = configs[i];
    const SimpleTm::Config& next = configs[i + 1];
    if (tm.IsHalting(cur.state)) return false;  // halted early but continued
    std::optional<SimpleTm::Transition> t =
        tm.Delta(cur.state, cur.tape[cur.head]);
    if (!t.has_value()) return false;
    SimpleTm::Config expect = cur;
    expect.tape[cur.head] = t->write;
    expect.state = t->next_state;
    expect.head = cur.head + t->move;
    if (expect.head < 0 || expect.head >= static_cast<int>(n)) return false;
    if (next.state != expect.state || next.head != expect.head ||
        next.tape != expect.tape) {
      return false;
    }
  }
  if (!tm.IsHalting(configs.back().state)) return false;

  // -- R2 decodes from the final tape's first n0² cells.
  std::string out = configs.back().tape.substr(0, n0 * n0);
  if (out.size() < n0 * n0) return false;
  Relation expected_r2 = DecodeGraph(
      out, std::vector<Value>(ranked.begin(), ranked.begin() + n0));
  return d.Get("R2") == expected_r2;
}

ViewSet TuringViews(const SimpleTm& tm) {
  ViewSet views;
  views.Add("VR1",
            Query::FromFunction(
                2,
                [tm](const Instance& d) {
                  if (VerifyComputationInstance(tm, d)) return d.Get("R1");
                  return Relation(2);
                },
                "phi_M & R1(x,y)"));
  return views;
}

Query TuringQuery(const SimpleTm& tm) {
  return Query::FromFunction(
      2,
      [tm](const Instance& d) {
        if (VerifyComputationInstance(tm, d)) return d.Get("R2");
        return Relation(2);
      },
      "phi_M & R2(x,y)");
}

Relation ComplementWithinAdom(const Relation& edges) {
  std::set<Value> adom;
  edges.CollectActiveDomain(adom);
  Relation result(2);
  for (Value a : adom) {
    for (Value b : adom) {
      Tuple e{a, b};
      if (!edges.Contains(e)) result.Insert(e);
    }
  }
  return result;
}

}  // namespace vqdr
