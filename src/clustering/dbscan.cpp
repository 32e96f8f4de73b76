#include "clustering/dbscan.hpp"

#include <bit>
#include <deque>
#include <limits>
#include <stdexcept>

namespace powerlens::clustering {

namespace {

void check_params(const DbscanParams& params) {
  if (params.eps <= 0.0 || params.min_pts == 0) {
    throw std::invalid_argument("dbscan: eps must be > 0 and min_pts >= 1");
  }
}

// CSR skeleton from per-row degrees: offsets filled, neighbors sized.
// Offsets are 32-bit, so a total past UINT32_MAX (reachable from n ≥ 65536
// with dense neighbourhoods) throws instead of wrapping into an undersized
// neighbor array.
EpsAdjacency with_offsets(std::size_t n, const std::size_t* degree) {
  constexpr std::size_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();
  EpsAdjacency adj;
  adj.n = n;
  adj.offsets.assign(n + 1, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (degree[i] > kMaxOffset - total) {
      throw std::length_error("EpsAdjacency: neighbor count exceeds 2^32 - 1");
    }
    total += degree[i];
    adj.offsets[i + 1] = static_cast<std::uint32_t>(total);
  }
  adj.neighbors.resize(total);
  return adj;
}

}  // namespace

EpsAdjacency EpsAdjacency::from_distances(const linalg::Matrix& distances,
                                          double eps) {
  if (!distances.square() || distances.rows() == 0) {
    throw std::invalid_argument(
        "EpsAdjacency: distance matrix must be square");
  }
  if (eps <= 0.0) {
    throw std::invalid_argument("EpsAdjacency: eps must be > 0");
  }
  // Pair (i, j) with j <= i lands in row i (ascending j) and, off the
  // diagonal, in row j — appended when row-major order reaches row i, after
  // every lower entry of row j, so each row stays ascending.
  const std::size_t n = distances.rows();
  std::vector<std::size_t> degree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      if (distances(i, j) <= eps) {
        ++degree[i];
        if (j != i) ++degree[j];
      }
    }
  }
  EpsAdjacency adj = with_offsets(n, degree.data());
  std::vector<std::uint32_t> fill(adj.offsets.begin(), adj.offsets.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      if (distances(i, j) <= eps) {
        adj.neighbors[fill[i]++] = static_cast<std::uint32_t>(j);
        if (j != i) adj.neighbors[fill[j]++] = static_cast<std::uint32_t>(i);
      }
    }
  }
  return adj;
}

EpsAdjacency EpsAdjacency::from_bitmap(std::size_t n,
                                       const std::uint64_t* bits,
                                       std::size_t words,
                                       const std::size_t* degree) {
  EpsAdjacency adj = with_offsets(n, degree);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t* out = adj.neighbors.data() + adj.offsets[i];
    const std::uint64_t* row = bits + i * words;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t word = row[w];
      while (word != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(word));
        *out++ = static_cast<std::uint32_t>(64 * w + b);
        word &= word - 1;
      }
    }
  }
  return adj;
}

std::vector<int> dbscan(const EpsAdjacency& adj, const DbscanParams& params) {
  check_params(params);
  if (adj.n == 0 || adj.offsets.size() != adj.n + 1) {
    throw std::invalid_argument("dbscan: malformed adjacency");
  }
  const std::size_t n = adj.n;

  constexpr int kUnvisited = -2;
  std::vector<int> labels(n, kUnvisited);
  // Enqueue stamp keyed by cluster id + 1 so it never needs clearing
  // between clusters: a point enters the current cluster's frontier at
  // most once. Together with skipping already-cluster-labeled neighbors
  // this removes the reference implementation's duplicate re-enqueues;
  // the pops that remain are exactly the reference's first-occurrence
  // (effective) pops in the same order — later duplicates were no-ops
  // there — so expansion order, border attribution, and every label are
  // unchanged (see the equivalence regression test).
  std::vector<int> enqueued(n, 0);
  std::deque<std::uint32_t> frontier;
  int next_cluster = 0;

  const auto push_unclaimed = [&](const std::uint32_t* row, std::size_t deg,
                                  int stamp) {
    for (std::size_t p = 0; p < deg; ++p) {
      const std::uint32_t q = row[p];
      if (labels[q] >= 0 || enqueued[q] == stamp) continue;
      enqueued[q] = stamp;
      frontier.push_back(q);
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] != kUnvisited) continue;
    if (adj.degree(i) < params.min_pts) {
      labels[i] = kNoise;
      continue;
    }
    const int cluster = next_cluster++;
    const int stamp = cluster + 1;
    labels[i] = cluster;
    push_unclaimed(adj.row(i), adj.degree(i), stamp);
    while (!frontier.empty()) {
      const std::uint32_t q = frontier.front();
      frontier.pop_front();
      if (labels[q] == kNoise) {
        labels[q] = cluster;  // border point: claimed, never expanded
        continue;
      }
      if (labels[q] != kUnvisited) continue;
      labels[q] = cluster;
      if (adj.degree(q) >= params.min_pts) {
        push_unclaimed(adj.row(q), adj.degree(q), stamp);
      }
    }
  }
  return labels;
}

}  // namespace powerlens::clustering
