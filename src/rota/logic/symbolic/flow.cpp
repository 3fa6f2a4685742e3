#include "rota/logic/symbolic/flow.hpp"

#include <algorithm>
#include <limits>

namespace rota::symbolic {

void MaxFlow::reset(std::size_t nodes) {
  if (adj_.size() < nodes) adj_.resize(nodes);
  for (std::size_t v = 0; v < nodes; ++v) adj_[v].clear();
  level_.resize(nodes);
  iter_.resize(nodes);
  edges_.clear();
  caps_.clear();
}

std::size_t MaxFlow::add_edge(std::size_t from, std::size_t to,
                              std::int64_t capacity) {
  const std::size_t id = edges_.size();
  edges_.emplace_back(from, adj_[from].size());
  caps_.push_back(capacity);
  adj_[from].push_back(Edge{to, adj_[to].size(), capacity});
  adj_[to].push_back(Edge{from, adj_[from].size() - 1, 0});
  return id;
}

bool MaxFlow::bfs(std::size_t s, std::size_t t) {
  std::fill(level_.begin(), level_.end(), -1);
  queue_.clear();
  level_[s] = 0;
  queue_.push_back(s);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::size_t v = queue_[head];
    for (const Edge& e : adj_[v]) {
      if (e.cap <= 0 || level_[e.to] >= 0) continue;
      level_[e.to] = level_[v] + 1;
      queue_.push_back(e.to);
    }
  }
  return level_[t] >= 0;
}

std::int64_t MaxFlow::dfs(std::size_t v, std::size_t t, std::int64_t limit) {
  if (v == t) return limit;
  for (std::size_t& i = iter_[v]; i < adj_[v].size(); ++i) {
    Edge& e = adj_[v][i];
    if (e.cap <= 0 || level_[e.to] != level_[v] + 1) continue;
    const std::int64_t pushed = dfs(e.to, t, std::min(limit, e.cap));
    if (pushed <= 0) continue;
    e.cap -= pushed;
    adj_[e.to][e.rev].cap += pushed;
    return pushed;
  }
  return 0;
}

std::int64_t MaxFlow::solve(std::size_t source, std::size_t sink) {
  std::int64_t total = 0;
  while (bfs(source, sink)) {
    std::fill(iter_.begin(), iter_.end(), 0);
    while (const std::int64_t pushed =
               dfs(source, sink, std::numeric_limits<std::int64_t>::max() / 2)) {
      total += pushed;
    }
  }
  return total;
}

std::int64_t MaxFlow::flow_on(std::size_t edge_id) const {
  const auto& [from, pos] = edges_[edge_id];
  return caps_[edge_id] - adj_[from][pos].cap;
}

}  // namespace rota::symbolic
