#include "reference.h"

#include <deque>

namespace perfbench {

namespace {

using Matrix = std::vector<std::vector<bool>>;

Matrix Adjacency(int n, const std::vector<Edge>& edges) {
  Matrix m(n + 1, std::vector<bool>(n + 1, false));
  for (const Edge& e : edges) m[e.first][e.second] = true;
  return m;
}

std::set<int> BfsFrom(const std::vector<std::vector<int>>& succ, int start) {
  std::set<int> seen;
  std::deque<int> queue = {start};
  while (!queue.empty()) {
    int u = queue.front();
    queue.pop_front();
    for (int v : succ[u]) {
      if (seen.insert(v).second) queue.push_back(v);
    }
  }
  return seen;
}

std::vector<std::vector<int>> Successors(int n, const std::vector<Edge>& edges) {
  std::vector<std::vector<int>> succ(n + 1);
  for (const Edge& e : edges) succ[e.first].push_back(e.second);
  return succ;
}

}  // namespace

std::set<Edge> WalkPairs(int n, const std::vector<Edge>& edges, int k) {
  // Boolean-matrix power, one row at a time: row x of A^k is the set of
  // nodes k steps from x.
  std::vector<std::vector<int>> succ = Successors(n, edges);
  std::set<Edge> out;
  for (int x = 1; x <= n; ++x) {
    std::vector<bool> row(n + 1, false);
    row[x] = true;
    for (int step = 0; step < k; ++step) {
      std::vector<bool> next(n + 1, false);
      for (int u = 1; u <= n; ++u) {
        if (!row[u]) continue;
        for (int v : succ[u]) next[v] = true;
      }
      row = std::move(next);
    }
    for (int y = 1; y <= n; ++y) {
      if (row[y]) out.insert({x, y});
    }
  }
  return out;
}

std::set<Edge> Closure(int n, const std::vector<Edge>& edges) {
  std::vector<std::vector<int>> succ = Successors(n, edges);
  std::set<Edge> out;
  for (int u = 1; u <= n; ++u) {
    for (int v : BfsFrom(succ, u)) out.insert({u, v});
  }
  return out;
}

std::set<int> Reachable(int n, const std::vector<Edge>& edges, int source) {
  std::set<int> out = BfsFrom(Successors(n, edges), source);
  out.insert(source);
  return out;
}

FoAnswer FoReference(int index, int n, const std::vector<Edge>& edges) {
  Matrix e = Adjacency(n, edges);
  std::set<int> adom_set;
  for (const Edge& x : edges) {
    adom_set.insert(x.first);
    adom_set.insert(x.second);
  }
  std::vector<int> adom(adom_set.begin(), adom_set.end());
  FoAnswer out;
  switch (index) {
    case 0:  // ∀y (E(x,y) → ∃z E(y,z))
      for (int x : adom) {
        bool all = true;
        for (int y : adom) {
          if (!e[x][y]) continue;
          bool has = false;
          for (int z : adom) has = has || e[y][z];
          all = all && has;
        }
        if (all) out.nodes.insert(x);
      }
      break;
    case 1:  // E(x,y) ∧ ¬E(y,x)
      for (int x : adom) {
        for (int y : adom) {
          if (e[x][y] && !e[y][x]) out.pairs.insert({x, y});
        }
      }
      break;
    case 2:  // (∃y E(x,y)) ∧ ∀z (E(z,x) → E(x,z))
      for (int x : adom) {
        bool out_edge = false;
        bool back = true;
        for (int y : adom) out_edge = out_edge || e[x][y];
        for (int z : adom) back = back && (!e[z][x] || e[x][z]);
        if (out_edge && back) out.nodes.insert(x);
      }
      break;
    case 3:  // (∃z E(x,z) ∧ E(z,y)) ∧ ¬E(x,y)
      for (int x : adom) {
        for (int y : adom) {
          bool two = false;
          for (int z : adom) two = two || (e[x][z] && e[z][y]);
          if (two && !e[x][y]) out.pairs.insert({x, y});
        }
      }
      break;
    case 4:  // ¬∃y E(y,x)
      for (int x : adom) {
        bool in = false;
        for (int y : adom) in = in || e[y][x];
        if (!in) out.nodes.insert(x);
      }
      break;
    default:  // E(x,y) ∧ ∀z (E(y,z) → ∃w (E(z,w) ∧ ¬E(w,x)))
      for (int x : adom) {
        for (int y : adom) {
          if (!e[x][y]) continue;
          bool all = true;
          for (int z : adom) {
            if (!e[y][z]) continue;
            bool some = false;
            for (int w : adom) some = some || (e[z][w] && !e[w][x]);
            all = all && some;
          }
          if (all) out.pairs.insert({x, y});
        }
      }
      break;
  }
  return out;
}

}  // namespace perfbench
