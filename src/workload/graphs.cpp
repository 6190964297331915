#include "workload/graphs.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/multiplicity.hpp"
#include "util/rng.hpp"

namespace dxbsp::workload {

void Graph::validate() const {
  for (const auto& [u, v] : edges) {
    if (u >= n || v >= n)
      throw std::invalid_argument("Graph: endpoint out of range");
    if (u == v) throw std::invalid_argument("Graph: self loop");
  }
}

Graph random_gnm(std::uint64_t n, std::uint64_t m, std::uint64_t seed) {
  if (n < 2 && m > 0)
    throw std::invalid_argument("random_gnm: need >= 2 vertices for edges");
  util::Xoshiro256 rng(util::substream(seed, 30));
  Graph g;
  g.n = n;
  g.edges.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint32_t u, v;
    do {
      u = static_cast<std::uint32_t>(rng.below(n));
      v = static_cast<std::uint32_t>(rng.below(n));
    } while (u == v);
    g.edges.emplace_back(u, v);
  }
  return g;
}

Graph star(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("star: empty graph");
  Graph g;
  g.n = n;
  g.edges.reserve(n - 1);
  for (std::uint32_t v = 1; v < n; ++v) g.edges.emplace_back(0u, v);
  return g;
}

Graph star_forest(std::uint64_t n, std::uint64_t stars, std::uint64_t seed) {
  if (stars == 0 || stars > n)
    throw std::invalid_argument("star_forest: bad star count");
  // Random assignment of non-center vertices to centers; centers are the
  // first `stars` vertex ids after a seeded shuffle of [0, n).
  std::vector<std::uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  util::Xoshiro256 rng(util::substream(seed, 31));
  for (std::uint64_t i = n; i > 1; --i) {
    const std::uint64_t j = rng.below(i);
    std::swap(perm[i - 1], perm[j]);
  }
  Graph g;
  g.n = n;
  g.edges.reserve(n - stars);
  for (std::uint64_t i = stars; i < n; ++i) {
    const std::uint64_t center = perm[i % stars];
    g.edges.emplace_back(static_cast<std::uint32_t>(center),
                         static_cast<std::uint32_t>(perm[i]));
  }
  return g;
}

Graph grid(std::uint64_t w, std::uint64_t h) {
  if (w == 0 || h == 0) throw std::invalid_argument("grid: empty grid");
  Graph g;
  g.n = w * h;
  for (std::uint64_t y = 0; y < h; ++y) {
    for (std::uint64_t x = 0; x < w; ++x) {
      const auto v = static_cast<std::uint32_t>(y * w + x);
      if (x + 1 < w) g.edges.emplace_back(v, v + 1);
      if (y + 1 < h) g.edges.emplace_back(v, static_cast<std::uint32_t>(v + w));
    }
  }
  return g;
}

Graph path(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("path: empty graph");
  Graph g;
  g.n = n;
  g.edges.reserve(n - 1);
  for (std::uint32_t v = 0; v + 1 < n; ++v) g.edges.emplace_back(v, v + 1);
  return g;
}

Graph rmat(unsigned scale, std::uint64_t m, double a, double b, double c,
           std::uint64_t seed) {
  if (scale == 0 || scale > 30)
    throw std::invalid_argument("rmat: scale must be in [1, 30]");
  if (a <= 0 || b < 0 || c < 0 || a + b + c >= 1.0)
    throw std::invalid_argument("rmat: quadrant probabilities invalid");
  util::Xoshiro256 rng(util::substream(seed, 32));
  Graph g;
  g.n = 1ULL << scale;
  g.edges.reserve(m);
  while (g.edges.size() < m) {
    std::uint64_t u = 0, v = 0;
    for (unsigned level = 0; level < scale; ++level) {
      const double r = rng.uniform();
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // top-left quadrant: both bits 0
      } else if (r < a + b) {
        v |= 1;
      } else if (r < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u == v) continue;
    g.edges.emplace_back(static_cast<std::uint32_t>(u),
                         static_cast<std::uint32_t>(v));
  }
  return g;
}

namespace {
std::uint32_t uf_find(std::vector<std::uint32_t>& parent, std::uint32_t v) {
  std::uint32_t root = v;
  while (parent[root] != root) root = parent[root];
  while (parent[v] != root) {
    const std::uint32_t next = parent[v];
    parent[v] = root;
    v = next;
  }
  return root;
}
}  // namespace

std::vector<std::uint32_t> reference_components(const Graph& g) {
  std::vector<std::uint32_t> parent(g.n);
  std::iota(parent.begin(), parent.end(), 0u);
  for (const auto& [u, v] : g.edges) {
    const std::uint32_t ru = uf_find(parent, u);
    const std::uint32_t rv = uf_find(parent, v);
    if (ru != rv) parent[std::max(ru, rv)] = std::min(ru, rv);
  }
  std::vector<std::uint32_t> labels(g.n);
  for (std::uint32_t v = 0; v < g.n; ++v) labels[v] = uf_find(parent, v);
  return labels;
}

std::uint64_t count_components(const std::vector<std::uint32_t>& labels) {
  const std::vector<std::uint64_t> keys(labels.begin(), labels.end());
  return util::MultiplicityCounter{}.count(keys).distinct;
}

}  // namespace dxbsp::workload
