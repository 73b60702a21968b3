#include "access/substrate.hpp"

#include <string>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace dp::access {

void Substrate::attach_source(stream::EdgeSource source) {
  if (source.file_backed() && !accepts_file_source()) {
    throw ConfigError(
        std::string("substrate '") + name() +
            "' requires random access to the input and cannot bind a "
            "file-backed edge source; use the streaming substrate for "
            "out-of-core solves",
        ErrorContext{"access.source"});
  }
  source_ = source;
}

void Substrate::charge_resident(std::size_t k, const char* what) {
  meter_.add_resident_edges(k);
  if (budget_ != 0 && meter_.resident_edges() > budget_) {
    throw ConfigError(
        std::string("memory budget exceeded: ") + what + " brings resident "
            "edge-attribute state to " +
            std::to_string(meter_.resident_edges()) +
            " edge records, over the configured budget of " +
            std::to_string(budget_) +
            " (memory_budget_edges); use the file-backed streaming "
            "substrate for out-of-core solves or raise the budget",
        ErrorContext{"access.budget"});
  }
}

void Substrate::bind(const Graph& g, const core::LevelGraph& lg,
                     ThreadPool* pool, std::size_t grain) {
  g_ = &g;
  lg_ = &lg;
  pool_ = pool;
  grain_ = grain == 0 ? 1 : grain;
  n_ = g.num_vertices();
  meter_.reset();
  injector_ = FaultInjector(plan_.config);
  retry_ = plan_.retry;

  if (source_.file_backed()) {
    // The file is the pass data plane for the SAME graph the solver is
    // running on; a mismatched file would silently desynchronize retained
    // indices from records, so reject it up front.
    if (source_.num_vertices() != g.num_vertices() ||
        source_.num_edges() != g.num_edges()) {
      throw ConfigError(
          "file-backed edge source does not match the bound graph (file n=" +
              std::to_string(source_.num_vertices()) + " m=" +
              std::to_string(source_.num_edges()) + ", graph n=" +
              std::to_string(g.num_vertices()) + " m=" +
              std::to_string(g.num_edges()) + "): " +
              source_.file()->path(),
          ErrorContext{"access.source"});
    }
  }

  const std::vector<EdgeId>& retained = lg.retained();
  retained_count_ = retained.size();
  table_.clear();
  if (materializes_table()) {
    table_.resize(retained.size());
    for (std::size_t idx = 0; idx < retained.size(); ++idx) {
      const EdgeId e = retained[idx];
      const Edge& edge = g.edge(e);
      table_[idx] = RetainedEdge{e, edge.u, edge.v, edge.w, lg.level(e)};
    }
    // One attribute record per retained edge. This is the charge that
    // makes an in-RAM solve over a graph bigger than the budget a typed
    // error.
    charge_resident(retained.size(), "retained attribute table");
  }
  on_bind();
}

void Substrate::materialize_union(const std::vector<std::uint32_t>& indices,
                                  std::vector<EdgeId>& ids,
                                  std::vector<Edge>& edges) const {
  ids.clear();
  edges.clear();
  ids.reserve(indices.size());
  edges.reserve(indices.size());
  for (const std::uint32_t idx : indices) {
    const RetainedEdge& re = table_[idx];
    ids.push_back(re.id);
    edges.push_back(Edge{re.u, re.v, re.w});
  }
}

}  // namespace dp::access
