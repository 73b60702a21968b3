#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace dp {

Graph::Graph(std::size_t n, std::vector<Edge> edges)
    : n_(n), edges_(std::move(edges)) {
  for (const Edge& e : edges_) {
    if (e.u >= n_ || e.v >= n_) {
      throw std::out_of_range("Graph: edge endpoint out of range");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("Graph: self loop not allowed");
    }
  }
}

Graph::Graph(const Graph& other) : n_(other.n_), edges_(other.edges_) {
  // Concurrent readers may be lazily building other's CSR right now; take
  // its build lock so we copy either no view or a complete one.
  std::lock_guard<std::mutex> lock(other.adjacency_mutex_);
  offsets_ = other.offsets_;
  incidences_ = other.incidences_;
  adjacency_valid_.store(
      other.adjacency_valid_.load(std::memory_order_relaxed),
      std::memory_order_release);
}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  n_ = other.n_;
  edges_ = other.edges_;
  std::lock_guard<std::mutex> lock(other.adjacency_mutex_);
  offsets_ = other.offsets_;
  incidences_ = other.incidences_;
  adjacency_valid_.store(
      other.adjacency_valid_.load(std::memory_order_relaxed),
      std::memory_order_release);
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : n_(other.n_),
      edges_(std::move(other.edges_)),
      offsets_(std::move(other.offsets_)),
      incidences_(std::move(other.incidences_)),
      adjacency_valid_(other.adjacency_valid_.load(std::memory_order_acquire)) {
  other.adjacency_valid_.store(false, std::memory_order_release);
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  n_ = other.n_;
  edges_ = std::move(other.edges_);
  offsets_ = std::move(other.offsets_);
  incidences_ = std::move(other.incidences_);
  adjacency_valid_.store(
      other.adjacency_valid_.load(std::memory_order_acquire),
      std::memory_order_release);
  other.adjacency_valid_.store(false, std::memory_order_release);
  return *this;
}

void Graph::reset(std::size_t n) {
  n_ = n;
  edges_.clear();
  adjacency_valid_.store(false, std::memory_order_release);
}

bool Graph::add_edge(Vertex u, Vertex v, double w) {
  if (u == v) return false;
  if (u >= n_ || v >= n_) {
    throw std::out_of_range("Graph::add_edge: endpoint out of range");
  }
  edges_.push_back(Edge{u, v, w});
  adjacency_valid_.store(false, std::memory_order_release);
  return true;
}

double Graph::total_weight() const noexcept {
  double s = 0;
  for (const Edge& e : edges_) s += e.w;
  return s;
}

double Graph::max_weight() const noexcept {
  double mx = 0;
  for (const Edge& e : edges_) mx = std::max(mx, e.w);
  return mx;
}

void Graph::build_adjacency() const {
  // Double-checked: racing readers serialize here; the loser of the race
  // observes the valid flag and returns without rebuilding.
  std::lock_guard<std::mutex> lock(adjacency_mutex_);
  if (adjacency_valid_.load(std::memory_order_relaxed)) return;
  offsets_.assign(n_ + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (std::size_t i = 0; i < n_; ++i) offsets_[i + 1] += offsets_[i];
  incidences_.resize(edges_.size() * 2);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const Edge& edge = edges_[e];
    incidences_[cursor[edge.u]++] = Incidence{edge.v, e};
    incidences_[cursor[edge.v]++] = Incidence{edge.u, e};
  }
  adjacency_valid_.store(true, std::memory_order_release);
}

std::span<const Graph::Incidence> Graph::neighbors(Vertex u) const {
  if (!adjacency_valid_.load(std::memory_order_acquire)) build_adjacency();
  assert(adjacency_valid_.load(std::memory_order_acquire) &&
         "neighbors() requires a built adjacency view");
  return std::span<const Incidence>(incidences_.data() + offsets_[u],
                                    offsets_[u + 1] - offsets_[u]);
}

Graph Graph::edge_subgraph(const std::vector<char>& keep) const {
  std::vector<Edge> sub;
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    if (e < keep.size() && keep[e]) sub.push_back(edges_[e]);
  }
  return Graph(n_, std::move(sub));
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << "Graph(n=" << n_ << ", m=" << edges_.size() << ", W=" << max_weight()
     << ")";
  return os.str();
}

std::int64_t Capacities::total() const noexcept {
  std::int64_t s = 0;
  for (std::int64_t b : b_) s += b;
  return s;
}

std::int64_t Capacities::weight_of(
    const std::vector<Vertex>& set) const noexcept {
  std::int64_t s = 0;
  for (Vertex v : set) s += b_[v];
  return s;
}

}  // namespace dp
