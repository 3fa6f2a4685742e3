// Dinic max-flow over the small transportation graphs the symbolic
// feasibility engine builds (supply ticks → phase intervals → demands).
//
// Capacities are integers, so a maximum flow is integral and a saturating
// flow decomposes directly into per-tick consumption rates — the witness
// labels the engine hands back. Graphs here are tiny (a few hundred nodes:
// one per tick in the window plus one per pending phase), and the engine
// solves thousands of them per search, so one solver is reset() and rebuilt
// per graph: adjacency lists, level/iterator arrays and the BFS queue keep
// their capacity across graphs. Edges are stored in insertion order, so the
// same insertions yield the same flow whether the solver is fresh or reused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rota::symbolic {

class MaxFlow {
 public:
  /// Drops every edge and sizes the graph to `nodes` nodes, keeping the
  /// buffers' capacity.
  void reset(std::size_t nodes);

  /// Adds a directed edge with the given capacity; returns an id usable with
  /// flow_on() after solve(). Capacity must be non-negative.
  std::size_t add_edge(std::size_t from, std::size_t to, std::int64_t capacity);

  /// Maximum source→sink flow. Call once per graph (reset() between graphs).
  std::int64_t solve(std::size_t source, std::size_t sink);

  /// Flow pushed through edge `edge_id` by solve().
  std::int64_t flow_on(std::size_t edge_id) const;

 private:
  struct Edge {
    std::size_t to = 0;
    std::size_t rev = 0;   // index of the paired reverse edge in adj_[to]
    std::int64_t cap = 0;  // residual capacity
  };

  bool bfs(std::size_t s, std::size_t t);
  std::int64_t dfs(std::size_t v, std::size_t t, std::int64_t limit);

  // adj_ only grows; lists past level_.size() are stale and never reached.
  std::vector<std::vector<Edge>> adj_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
  std::vector<std::size_t> queue_;                          // BFS frontier
  std::vector<std::pair<std::size_t, std::size_t>> edges_;  // id → (from, pos)
  std::vector<std::int64_t> caps_;                          // id → original cap
};

}  // namespace rota::symbolic
