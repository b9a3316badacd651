#include "catalog/placement.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "random/alias_sampler.hpp"
#include "util/contracts.hpp"

namespace proxcache {

PlacementMode placement_mode_from_string(const std::string& name) {
  if (name == "replacement") return PlacementMode::ProportionalWithReplacement;
  if (name == "distinct") return PlacementMode::DistinctProportional;
  throw std::invalid_argument("unknown placement mode '" + name +
                              "' (expected 'replacement' or 'distinct')");
}

std::string to_string(PlacementMode mode) {
  return mode == PlacementMode::ProportionalWithReplacement ? "replacement"
                                                            : "distinct";
}

namespace {

/// Most (node, file) entries the uint32_t node and replica offsets index.
constexpr std::size_t kMaxEntries = std::numeric_limits<std::uint32_t>::max();

[[noreturn]] void throw_too_large(std::size_t n, std::size_t m,
                                  std::size_t k) {
  throw std::invalid_argument(
      "placement of n=" + std::to_string(n) + " nodes, M=" +
      std::to_string(m) + " slots, K=" + std::to_string(k) +
      " files holds more (node, file) entries than its uint32 offsets "
      "index (n*min(M, K) must be <= " + std::to_string(kMaxEntries) + ")");
}

/// `n·min(M, K)`, the most entries a placement can hold. Throws, before
/// anything is allocated, when it passes kMaxEntries.
std::size_t checked_entry_bound(std::size_t n, std::size_t m, std::size_t k) {
  const std::size_t per_node = std::min(m, k);
  if (per_node != 0 && n > kMaxEntries / per_node) throw_too_large(n, m, k);
  return n * per_node;
}

/// Replacement mode dedupes a node's M draws in a K-bit bitmap, read back
/// in id order in O(M + K/64), while it has fewer than
/// kBitmapWordsPerDraw·M words, and by sort + unique past that. Measured
/// per node, draws included, on a 4-core Xeon: the two break even near
/// K/64 ≈ M at K = 100, 1.9M at K = 2000, 4M at K = 10⁴ and 10M at
/// K = 10⁵ (sorting costs more per draw as M grows). Below 2M words the
/// bitmap won every case measured (3.4× at K = 2000, M = 100); at K = 10⁵,
/// M = 10 it is 17× slower than the sort.
constexpr std::size_t kBitmapWordsPerDraw = 2;

}  // namespace

Placement Placement::generate(std::size_t num_nodes,
                              const Popularity& popularity,
                              std::size_t cache_size, PlacementMode mode,
                              Rng& rng) {
  PROXCACHE_REQUIRE(num_nodes >= 1, "placement needs >= 1 node");
  PROXCACHE_REQUIRE(cache_size >= 1, "cache size must be >= 1");
  const std::size_t num_files = popularity.num_files();
  const std::size_t max_entries =
      checked_entry_bound(num_nodes, cache_size, num_files);
  const AliasSampler sampler(popularity.pmf());

  std::vector<std::uint32_t> offsets;
  offsets.reserve(num_nodes + 1);
  offsets.push_back(0);
  std::vector<FileId> files;
  files.reserve(max_entries);

  const bool replacement = mode == PlacementMode::ProportionalWithReplacement;
  const std::size_t words = (num_files + 63) / 64;
  const bool by_bitmap =
      replacement && words < kBitmapWordsPerDraw * cache_size;
  std::vector<std::uint64_t> bitmap(by_bitmap ? words : 0);
  std::vector<FileId> scratch;
  scratch.reserve(cache_size);
  for (std::size_t u = 0; u < num_nodes; ++u) {
    scratch.clear();
    if (by_bitmap) {
      for (std::size_t slot = 0; slot < cache_size; ++slot) {
        const FileId j = sampler.sample(rng);
        bitmap[j / 64] |= std::uint64_t{1} << (j % 64);
      }
      for (std::size_t w = 0; w < bitmap.size(); ++w) {
        for (std::uint64_t word = bitmap[w]; word != 0; word &= word - 1) {
          scratch.push_back(
              static_cast<FileId>(w * 64 + std::countr_zero(word)));
        }
        bitmap[w] = 0;
      }
    } else if (replacement) {
      for (std::size_t slot = 0; slot < cache_size; ++slot) {
        scratch.push_back(sampler.sample(rng));
      }
      std::sort(scratch.begin(), scratch.end());
      scratch.erase(std::unique(scratch.begin(), scratch.end()),
                    scratch.end());
    } else {
      if (cache_size >= num_files) {
        for (FileId j = 0; j < num_files; ++j) scratch.push_back(j);
      } else {
        // Popularity-biased sampling without replacement via the
        // Efraimidis–Spirakis one-pass method: key_i = u_i^(1/w_i), take
        // the M largest keys. O(K log M) regardless of skew (a rejection
        // loop would stall when M approaches K under heavy Zipf skew).
        // Min-heap of (key, file) keeps the current top-M.
        std::vector<std::pair<double, FileId>> heap;
        heap.reserve(cache_size + 1);
        for (FileId j = 0; j < num_files; ++j) {
          const double w = popularity.pmf(j);
          if (w <= 0.0) continue;
          const double key = std::pow(rng.uniform(), 1.0 / w);
          if (heap.size() < cache_size) {
            heap.emplace_back(key, j);
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
          } else if (key > heap.front().first) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
            heap.back() = {key, j};
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
          }
        }
        for (const auto& [key, j] : heap) scratch.push_back(j);
        std::sort(scratch.begin(), scratch.end());
      }
    }
    files.insert(files.end(), scratch.begin(), scratch.end());
    offsets.push_back(static_cast<std::uint32_t>(files.size()));
  }
  return Placement(num_files, std::move(offsets), std::move(files),
                   cache_size, mode);
}

Placement Placement::full(std::size_t num_nodes, std::size_t num_files,
                          PlacementMode mode) {
  PROXCACHE_REQUIRE(num_nodes >= 1, "placement needs >= 1 node");
  PROXCACHE_REQUIRE(num_files >= 1, "placement needs >= 1 file");
  const std::size_t entries =
      checked_entry_bound(num_nodes, num_files, num_files);
  std::vector<std::uint32_t> offsets;
  offsets.reserve(num_nodes + 1);
  offsets.push_back(0);
  std::vector<FileId> files;
  files.reserve(entries);
  for (std::size_t u = 0; u < num_nodes; ++u) {
    for (FileId j = 0; j < num_files; ++j) files.push_back(j);
    offsets.push_back(static_cast<std::uint32_t>(files.size()));
  }
  return Placement(num_files, std::move(offsets), std::move(files),
                   num_files, mode);
}

Placement Placement::compose(std::span<const Placement> parts) {
  PROXCACHE_REQUIRE(!parts.empty(), "compose needs >= 1 placement");
  const std::size_t num_files = parts.front().num_files();
  std::size_t total_nodes = 0;
  std::size_t total_entries = 0;
  std::size_t cache_size = 0;
  for (const Placement& part : parts) {
    PROXCACHE_REQUIRE(part.num_files() == num_files,
                      "composed placements must share one file library");
    total_nodes += part.num_nodes();
    total_entries += part.node_files_.size();
    cache_size = std::max(cache_size, part.cache_size());
  }
  if (total_entries > kMaxEntries) {
    throw_too_large(total_nodes, cache_size, num_files);
  }

  std::vector<std::uint32_t> offsets;
  offsets.reserve(total_nodes + 1);
  offsets.push_back(0);
  std::vector<FileId> files;
  files.reserve(total_entries);
  for (const Placement& part : parts) {
    for (NodeId u = 0; u < part.num_nodes(); ++u) {
      for (const FileId j : part.files_of(u)) files.push_back(j);
      offsets.push_back(static_cast<std::uint32_t>(files.size()));
    }
  }
  return Placement(num_files, std::move(offsets), std::move(files),
                   cache_size, parts.front().mode());
}

Placement::Placement(std::size_t num_files, std::vector<std::uint32_t> offsets,
                     std::vector<FileId> files, std::size_t cache_size,
                     PlacementMode mode)
    : node_offsets_(std::move(offsets)),
      node_files_(std::move(files)),
      replica_offsets_(num_files + 1, 0),
      replica_nodes_(node_files_.size()),
      cache_size_(cache_size),
      mode_(mode) {
  // Counting sort of the (node, file) entries by file: count each file's
  // replicas, prefix-sum the counts into offsets, then scatter the nodes in
  // id order, so every S_j comes out sorted.
  for (const FileId j : node_files_) ++replica_offsets_[j + 1];
  for (std::size_t j = 0; j < num_files; ++j) {
    replica_offsets_[j + 1] += replica_offsets_[j];
  }
  std::vector<std::uint32_t> cursor(replica_offsets_.begin(),
                                    replica_offsets_.end() - 1);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (const FileId j : files_of(u)) replica_nodes_[cursor[j]++] = u;
  }
}

bool Placement::caches(NodeId u, FileId j) const {
  const auto list = files_of(u);
  return std::binary_search(list.begin(), list.end(), j);
}

std::size_t Placement::files_with_replicas() const {
  std::size_t count = 0;
  for (FileId j = 0; j < num_files(); ++j) {
    if (replica_count(j) != 0) ++count;
  }
  return count;
}

std::size_t Placement::overlap(NodeId u, NodeId v) const {
  const auto a = files_of(u);
  const auto b = files_of(v);
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

}  // namespace proxcache
