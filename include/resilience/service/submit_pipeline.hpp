#pragma once

// The reuse ladder every submission walks, written once for analytic
// (core::SweepTable) and simulate (SimTable) requests:
//
//   1. identity tier — a stored table whose content bit-matches the
//      request (the 64-bit signature alone is not trusted) replays its
//      cells in table order.
//   2. in-flight join — a concurrent submission of the same signature is
//      computing: wait for it, then replay. If that leader is cancelled by
//      its own token, retry from step 1 (possibly as the new leader); if
//      the joiner's token fires first, it stops waiting.
//   3. compute — lead: compute, publish to the store, then wake joiners,
//      so a submission arriving at any interleaving finds the table.
//
// A fired token unwinds with core::SweepCancelled at any step and no
// partial table is published; deadline expiries are counted.
// replay_resident() is step 1 alone, restricted to the memory tier: what
// the daemon's event loop may answer without handing off to a worker.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "resilience/core/cancel.hpp"
#include "resilience/core/sweep.hpp"

namespace resilience::service {

inline void throw_if_cancelled(const core::CancelToken& cancel) {
  if (cancel.cancelled()) {
    throw core::SweepCancelled(cancel.deadline_expired());
  }
}

/// Collision guard: a table may only serve a submission if it is the
/// table OF its resolved points and kinds, bit for bit.
template <class Table>
bool same_grid(const Table& table,
               const std::vector<core::ScenarioPoint>& points,
               const std::vector<core::PatternKind>& kinds) {
  if (table.kinds != kinds || table.points.size() != points.size()) {
    return false;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!core::points_bit_identical(table.points[i], points[i])) {
      return false;
    }
  }
  return true;
}

/// Delivers a reused table's cells in table order, polling `cancel` per
/// cell like a compute does.
template <class Table, class Deliver>
void replay_cells(const Table& table, const core::CancelToken& cancel,
                  Deliver&& deliver) {
  for (const auto& cell : table.cells) {
    throw_if_cancelled(cancel);
    deliver(cell);
  }
}

/// Outcome of one submission, for either table kind.
template <class Table>
struct SubmitOutcome {
  std::shared_ptr<const Table> table;
  core::GridSignature signature;
  bool cache_hit = false;         ///< served by the identity tier
  bool disk_hit = false;          ///< the hit was lazily reloaded from disk
  bool joined_in_flight = false;  ///< deduped onto a concurrent submission
};

/// The per-mode steps of one submission (see SubmitPipeline::submit).
template <class Find, class Matches, class Replay, class Compute,
          class Publish>
struct SubmitSteps {
  Find find;        ///< Ptr(bool* disk_hit): identity-tier lookup
  Matches matches;  ///< bool(const Table&): the collision guard
  Replay replay;    ///< void(const Table&): deliver a reused table's cells
  /// Ptr(bool leader): compute the table; `leader` is false for a
  /// collision recompute, whose table is returned but never published.
  Compute compute;
  Publish publish;  ///< void(const Ptr&): insert the leader's table
};

template <class Table>
class SubmitPipeline {
 public:
  /// How often a joiner re-checks its token while the leader computes.
  static constexpr std::chrono::milliseconds kJoinPoll{1};

  using Ptr = std::shared_ptr<const Table>;
  using Outcome = SubmitOutcome<Table>;

  /// Walks the ladder for `signature`. Safe to call from many threads.
  template <class Steps>
  Outcome submit(core::GridSignature signature,
                 const core::CancelToken& cancel, Steps&& steps) {
    try {
      for (;;) {
        throw_if_cancelled(cancel);

        bool disk_hit = false;
        if (Ptr table = steps.find(&disk_hit)) {
          if (!steps.matches(*table)) {
            return recompute(signature, steps);  // two grids, one signature
          }
          steps.replay(*table);
          ++cache_hits_;
          disk_hits_ += disk_hit ? 1 : 0;
          return {std::move(table), signature, /*cache_hit=*/true, disk_hit,
                  /*joined_in_flight=*/false};
        }

        // Miss: join the signature's in-flight leader or become it.
        std::shared_ptr<std::promise<Ptr>> promise;
        std::shared_future<Ptr> future;
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          const auto it = in_flight_.find(signature.value);
          if (it != in_flight_.end()) {
            future = it->second;
          } else {
            promise = std::make_shared<std::promise<Ptr>>();
            future = promise->get_future().share();
            in_flight_.emplace(signature.value, future);
          }
        }

        if (promise == nullptr) {
          // Wait in slices so the joiner's own token still unwinds it
          // while the leader computes.
          while (future.wait_for(kJoinPoll) != std::future_status::ready) {
            throw_if_cancelled(cancel);
          }
          Ptr table;
          try {
            table = future.get();  // rethrows the leader's failure
          } catch (const core::SweepCancelled&) {
            continue;  // the LEADER was cancelled, not us: retry
          }
          if (!steps.matches(*table)) {
            return recompute(signature, steps);
          }
          steps.replay(*table);
          ++joins_;
          return {std::move(table), signature, /*cache_hit=*/false,
                  /*disk_hit=*/false, /*joined_in_flight=*/true};
        }

        Ptr table;
        try {
          table = steps.compute(/*leader=*/true);
        } catch (...) {
          promise->set_exception(std::current_exception());
          finish(signature);
          throw;
        }
        ++computed_;
        steps.publish(table);
        promise->set_value(table);
        finish(signature);
        return {std::move(table), signature};
      }
    } catch (const core::SweepCancelled& cancelled) {
      if (cancelled.deadline_expired()) {
        ++deadline_timeouts_;
      }
      throw;
    }
  }

  /// The identity tier alone, for a caller that must not block — the
  /// transport's event loop. `resident()` is a memory-only lookup that
  /// returns a table only once it passed the collision guard (e.g.
  /// TieredStore::find_resident with `matches` as the predicate); that
  /// table replays and counts like submit()'s hit. Otherwise nullopt,
  /// having delivered and counted nothing: never disk IO, never an
  /// in-flight join, never a compute.
  template <class Resident, class Replay>
  std::optional<Outcome> replay_resident(core::GridSignature signature,
                                         Resident&& resident,
                                         Replay&& replay) {
    Ptr table = resident();
    if (table == nullptr) {
      return std::nullopt;
    }
    try {
      replay(*table);
    } catch (const core::SweepCancelled& cancelled) {
      if (cancelled.deadline_expired()) {
        ++deadline_timeouts_;
      }
      throw;
    }
    ++cache_hits_;
    return Outcome{std::move(table), signature, /*cache_hit=*/true,
                   /*disk_hit=*/false, /*joined_in_flight=*/false};
  }

  // Monotonic counters; computed() includes collision recomputes.
  std::uint64_t cache_hits() const { return cache_hits_.load(); }
  std::uint64_t disk_hits() const { return disk_hits_.load(); }
  std::uint64_t joins() const { return joins_.load(); }
  std::uint64_t computed() const { return computed_.load(); }
  std::uint64_t deadline_timeouts() const { return deadline_timeouts_.load(); }

 private:
  template <class Steps>
  Outcome recompute(core::GridSignature signature, Steps& steps) {
    Ptr table = steps.compute(/*leader=*/false);
    ++computed_;
    return {std::move(table), signature};
  }

  void finish(core::GridSignature signature) {
    const std::lock_guard<std::mutex> lock(mutex_);
    in_flight_.erase(signature.value);
  }

  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::shared_future<Ptr>> in_flight_;
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> joins_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> deadline_timeouts_{0};
};

}  // namespace resilience::service
