#pragma once

// The service's result cache: one TieredStore per result kind (see
// tiered_store.hpp) sharing a capacity and a cache directory, plus a seed
// tier layered on the analytic store.
//
//  * analytic tables — find/insert, tables(): the identity LRU and the
//    verified '<dir>/<signature-hex>.json' spill of core::SweepTable.
//  * simulate tables — sims(): the same store instantiated for SimTable,
//    spilled as '<dir>/<signature-hex>.sim.json'. Monte Carlo campaigns
//    share no "bit-equal point" granularity, so they have no seed tier.
//  * seed tier — seeds_for(chain key): any cached analytic table sharing a
//    chain (same base platform + cost override + family + result-affecting
//    options — see core::ChainKey) supplies that chain's finished cells as
//    ChainSeeds, so a *different* grid warm-starts from — and, at
//    bit-equal resolved parameters, outright reuses — per-point optima.
//    The chain index follows the analytic store through its Listener
//    hooks and persists as a 'seed_index.json' sidecar recording each
//    spilled table's chains, so related grids seed across a restart too.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "resilience/core/sweep.hpp"
#include "resilience/service/tiered_store.hpp"

namespace resilience::service {

class SweepCache final
    : private TieredStore<core::SweepTable>::Listener {
 public:
  using TablePtr = std::shared_ptr<const core::SweepTable>;

  /// `capacity` bounds each store's retained tables (0 disables caching,
  /// disk tier included); a non-empty `cache_dir` enables the disk tiers
  /// and reloads an existing sidecar's chain index.
  explicit SweepCache(std::size_t capacity = 64, std::string cache_dir = "");

  /// Spills every retained entry of both stores, and the sidecar.
  ~SweepCache();

  SweepCache(const SweepCache&) = delete;
  SweepCache& operator=(const SweepCache&) = delete;

  /// Analytic memory-then-disk lookup; disk loads re-sign under `options`.
  [[nodiscard]] TablePtr find(core::GridSignature signature,
                              const core::SweepOptions& options,
                              bool* loaded_from_disk = nullptr) {
    return tables_.find(signature, options, loaded_from_disk);
  }

  /// Inserts an analytic table and indexes its chains for seeds_for().
  void insert(core::GridSignature signature, TablePtr table,
              std::vector<core::GridChain> chains);

  /// Finished cells of every cached chain matching `key`, from memory or
  /// (verified) disk; `options` verify lazily loaded files. Empty when no
  /// cached grid shares the chain.
  [[nodiscard]] std::vector<core::ChainSeed> seeds_for(
      core::ChainKey key, const core::SweepOptions& options);

  /// Non-mutating probe: does the seed tier advertise at least one cached
  /// chain under `key`? No LRU promotion, no counters, no IO.
  [[nodiscard]] bool has_seeds(core::ChainKey key) const;

  /// Read-only view of the analytic store (probes and counters()): writes
  /// go through insert(), which also indexes the table's chains.
  [[nodiscard]] const TieredStore<core::SweepTable>& tables() const noexcept {
    return tables_;
  }
  /// The analytic store for lookups that promote (find_resident, like
  /// sims().find_resident); never insert through it — that would skip
  /// the chain index.
  [[nodiscard]] TieredStore<core::SweepTable>& tables() noexcept {
    return tables_;
  }
  /// The simulate-table store.
  [[nodiscard]] TieredStore<SimTable>& sims() noexcept { return sims_; }
  [[nodiscard]] const TieredStore<SimTable>& sims() const noexcept {
    return sims_;
  }

  /// seeds_for() calls that returned at least one seed.
  [[nodiscard]] std::uint64_t seed_hits() const noexcept {
    return seed_hits_.load(std::memory_order_relaxed);
  }

 private:
  // Listener hooks, called with the analytic store's lock held.
  void on_spilled() override;
  void on_dropped(core::GridSignature signature) override;

  // Helpers below expect seed_mutex_ to be held.
  void index_chains_locked(core::GridSignature signature,
                           const std::vector<core::GridChain>& chains);
  void unindex_chains_locked(core::GridSignature signature,
                             const std::vector<core::GridChain>& chains);
  void write_sidecar_locked();
  /// Constructor only: indexes the chains of the sidecar's spilled tables.
  void load_sidecar();
  [[nodiscard]] std::string sidecar_path() const;

  /// Guards the seed tier. Lock order: a store's mutex, then this one —
  /// never the reverse.
  mutable std::mutex seed_mutex_;
  /// Chains of every reachable analytic table (memory or disk).
  std::unordered_map<std::uint64_t, std::vector<core::GridChain>> chains_;
  /// chain key -> signatures of reachable tables containing that chain, in
  /// insertion order.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> seed_index_;
  std::atomic<std::uint64_t> seed_hits_{0};
  // The stores come after the seed tier they notify.
  TieredStore<core::SweepTable> tables_;
  TieredStore<SimTable> sims_;
};

}  // namespace resilience::service
