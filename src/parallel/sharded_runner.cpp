#include "parallel/sharded_runner.hpp"

#include <algorithm>
#include <array>
#include <exception>

#include "core/run_harness.hpp"
#include "random/seeding.hpp"
#include "strategy/registry.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace proxcache {

namespace {

/// Requests per worker task. Small enough that a batch splits into more
/// chunks than workers (load balancing), large enough to amortize the
/// submit/future overhead against ~100ns-per-request propose work.
constexpr std::size_t kChunkRequests = 512;

/// Chunks a batch of `count` requests occupies.
std::size_t chunks_for(std::size_t count) {
  return (count + kChunkRequests - 1) / kChunkRequests;
}

/// One request in flight: its proposal plus the post-propose state of its
/// pinned Rng stream (the Rng is 40 bytes — cheap to park in the slot so
/// `choose` can resume the exact stream `propose` left off).
struct Slot {
  Request request;
  Proposal proposal;
  Rng rng{0};
};

/// One half of the double buffer: the slots of a batch, a private arena per
/// chunk, and the in-flight futures. Workers touch only their own chunk's
/// slot range and arena.
struct BatchBuffer {
  std::vector<Slot> slots;
  std::size_t count = 0;    ///< admitted requests in this batch
  std::uint64_t base = 0;   ///< ordinal of slots[0] in the admitted stream
  std::vector<CandidateArena> arenas;
  std::vector<std::future<void>> futures;
  /// Propose wall time per chunk, written by the propose task and folded
  /// into ShardStats after its future is joined.
  std::vector<double> chunk_seconds;
};

}  // namespace

ShardedRunner::ShardedRunner(const SimulationContext& context,
                             ShardedRunOptions options)
    : context_(&context), options_(options) {
  PROXCACHE_REQUIRE(options.threads >= 1 && options.threads <= 1024,
                    "sharded engine threads must be in [1, 1024]");
  PROXCACHE_REQUIRE(options.batch >= 1, "shard batch must be >= 1");
  if (options_.threads >= 2) {
    pool_ = std::make_unique<ThreadPool>(options_.threads - 1);
  }
}

RunResult ShardedRunner::run(std::uint64_t run_index,
                             ShardStats* stats) const {
  RunHarness harness(*context_, run_index);
  const ExperimentConfig& config = context_->config();
  const std::size_t batch = options_.batch;
  const std::size_t chunks = chunks_for(batch);

  std::array<BatchBuffer, 2> buffers;
  for (BatchBuffer& buffer : buffers) {
    buffer.slots.resize(batch);
    buffer.arenas.resize(chunks);
    buffer.futures.reserve(chunks);
    buffer.chunk_seconds.assign(chunks, 0.0);
  }

  // Lane-private strategy instances: `propose` may mutate strategy-local
  // scratch, so every chunk slot of every buffer gets its own instance from
  // the registry factory. `harness.strategy` stays the commit thread's
  // instance (`choose` is const and safe alongside in-flight proposes).
  const StrategyEntry& entry =
      StrategyRegistry::global().at(harness.spec.name);
  std::vector<std::unique_ptr<Strategy>> lanes;
  lanes.reserve(2 * chunks);
  for (std::size_t i = 0; i < 2 * chunks; ++i) {
    lanes.push_back(entry.factory(harness.spec, harness.index,
                                  context_->topology(), config));
  }
  if (stats) {
    *stats = ShardStats{};
    stats->lane_requests.assign(chunks, 0);
    stats->lane_seconds.assign(chunks, 0.0);
  }

  std::uint64_t next_ordinal = 0;
  // The constant (run, phase) prefix of every pinned stream, hashed once;
  // fill() then derives each request's stream in two mixes.
  const std::uint64_t strategy_prefix =
      derive_seed_prefix(config.seed, {run_index, seed_phase::kStrategy});

  // Serial producer: trace generation + sanitize on the legacy sequential
  // streams — the admitted request stream is identical to the serial
  // engine's — plus the batched derivation of every pinned strategy stream.
  auto fill = [&](BatchBuffer& buffer) {
    WallTimer timer;
    buffer.base = next_ordinal;
    buffer.count = 0;
    Request request;
    while (buffer.count < batch &&
           harness.sanitized.try_next(harness.trace_rng, request)) {
      Slot& slot = buffer.slots[buffer.count];
      slot.request = request;
      slot.rng = Rng(
          derive_seed_leaf(strategy_prefix, buffer.base + buffer.count));
      ++buffer.count;
    }
    next_ordinal += buffer.count;
    if (stats) stats->fill_seconds += timer.seconds();
    return buffer.count > 0;
  };

  auto propose_chunk = [&](BatchBuffer& buffer, std::size_t buffer_id,
                           std::size_t chunk) {
    WallTimer timer;
    const std::size_t begin = chunk * kChunkRequests;
    const std::size_t end = std::min(begin + kChunkRequests, buffer.count);
    Strategy& lane = *lanes[buffer_id * chunks + chunk];
    CandidateArena& arena = buffer.arenas[chunk];
    arena.clear();
    for (std::size_t j = begin; j < end; ++j) {
      Slot& slot = buffer.slots[j];
      slot.proposal = Proposal{};
      lane.propose(slot.request, slot.rng, arena, slot.proposal);
    }
    buffer.chunk_seconds[chunk] = timer.seconds();
  };

  auto dispatch = [&](BatchBuffer& buffer, std::size_t buffer_id) {
    const std::size_t used = chunks_for(buffer.count);
    for (std::size_t chunk = 0; chunk < used; ++chunk) {
      if (pool_) {
        buffer.futures.push_back(pool_->submit(
            [&buffer, buffer_id, chunk, &propose_chunk] {
              propose_chunk(buffer, buffer_id, chunk);
            }));
      } else {
        propose_chunk(buffer, buffer_id, chunk);
      }
    }
  };

  auto join = [&](BatchBuffer& buffer) {
    WallTimer timer;
    std::exception_ptr error;
    for (std::future<void>& future : buffer.futures) {
      try {
        future.get();
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    buffer.futures.clear();
    if (error) std::rethrow_exception(error);
    if (stats) {
      stats->join_seconds += timer.seconds();
      const std::size_t used = chunks_for(buffer.count);
      for (std::size_t chunk = 0; chunk < used; ++chunk) {
        stats->propose_seconds += buffer.chunk_seconds[chunk];
        stats->lane_seconds[chunk] += buffer.chunk_seconds[chunk];
      }
    }
  };

  // Serial committer: request order, effective loads — the exact tail of
  // the serial loop, with each request's pinned stream resumed for its
  // load-dependent draws.
  auto commit = [&](BatchBuffer& buffer) {
    WallTimer timer;
    for (std::size_t j = 0; j < buffer.count; ++j) {
      Slot& slot = buffer.slots[j];
      harness.commit(harness.strategy->choose(
          slot.request, slot.proposal, buffer.arenas[j / kChunkRequests],
          *harness.load_view, slot.rng));
    }
    if (stats) {
      ++stats->batches;
      stats->requests += buffer.count;
      stats->commit_seconds += timer.seconds();
      if (pool_) stats->proposed_off_thread += buffer.count;
      const std::size_t used = chunks_for(buffer.count);
      for (std::size_t chunk = 0; chunk < used; ++chunk) {
        const std::size_t begin = chunk * kChunkRequests;
        stats->lane_requests[chunk] +=
            std::min(buffer.count - begin, kChunkRequests);
      }
    }
  };

  // Tasks capture the stack-local buffers: never unwind past them with
  // futures in flight.
  auto drain_all = [&]() noexcept {
    for (BatchBuffer& buffer : buffers) {
      for (std::future<void>& future : buffer.futures) {
        try {
          future.get();
        } catch (...) {  // NOLINT(bugprone-empty-catch)
        }
      }
      buffer.futures.clear();
    }
  };

  // Both buffers stay in flight: batch B commits while B+1 proposes, and
  // B's buffer is refilled with B+2 and dispatched before B+1 is joined.
  // So the pool holds queued chunks whenever the main thread is busy, and
  // a propose-bound run's workers go from one batch to the next without
  // sleeping. Buffers are joined, committed and refilled in fill order.
  try {
    std::size_t in_flight = 0;
    bool more = true;
    for (std::size_t id = 0; id < buffers.size() && more; ++id) {
      more = fill(buffers[id]);
      if (more) {
        dispatch(buffers[id], id);
        ++in_flight;
      }
    }
    for (std::size_t id = 0; in_flight > 0; id = 1 - id) {
      join(buffers[id]);
      commit(buffers[id]);
      --in_flight;
      if (more) more = fill(buffers[id]);
      if (more) {
        dispatch(buffers[id], id);
        ++in_flight;
      }
    }
  } catch (...) {
    drain_all();
    throw;
  }

  return harness.finalize();
}

}  // namespace proxcache
