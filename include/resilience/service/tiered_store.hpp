#pragma once

// One tiered store of immutable result tables keyed by signature — the
// cache behind both analytic (core::SweepTable) and simulate (SimTable)
// requests. Two tiers:
//
//  * identity LRU — find(signature) hands out the same shared immutable
//    table the compute produced, so a hit is bit-identical to a recompute
//    by construction; find_resident() is the same lookup confined to this
//    tier, for callers that must never wait on IO.
//  * verified disk spill — with a directory, evicted and persisted tables
//    are written as '<dir>/<signature-hex><suffix>' (a format tag, an
//    FNV-1a checksum of the payload, and the canonical table JSON, whose
//    round trip is byte-identical). A memory miss reloads the file lazily
//    and serves it only if the payload re-hashes to its checksum and the
//    table's content re-signs to the filename; anything else is rejected
//    with a stderr warning and counted, never served.
//
// Evictions are one path for inserts and disk promotions alike: victims
// leave the LRU under the lock and are serialized and written with the
// lock released; in that IO window a victim is in neither tier, which
// readers treat as a miss. Lazy loads parse under the lock — once per
// entry per process — which keeps the steady-state path unstalled.
// StoreTraits supply what differs per table type: file suffix, format
// tag, JSON codec and content re-signature.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "resilience/core/sweep.hpp"
#include "resilience/service/serialize.hpp"
#include "resilience/service/sim_table.hpp"
#include "resilience/util/json.hpp"

namespace resilience::service {

template <class Table>
struct StoreTraits;

template <>
struct StoreTraits<core::SweepTable> {
  /// Spills re-sign under the caller's result-affecting options, so a file
  /// written under another configuration is rejected, not served.
  using Context = core::SweepOptions;
  static constexpr const char* kSuffix = ".json";
  static constexpr const char* kFormat = "sweep-table-spill-v1";
  static util::JsonValue encode(const core::SweepTable& table) {
    return to_json(table);
  }
  static core::SweepTable decode(const util::JsonValue& json) {
    return table_from_json(json);
  }
  static core::GridSignature sign(const core::SweepTable& table,
                                  const Context& options) {
    return core::grid_signature(table.points, table.kinds, options);
  }
};

template <>
struct StoreTraits<SimTable> {
  /// The SimParams travel inside the table: nothing else to re-sign under.
  struct Context {};
  static constexpr const char* kSuffix = ".sim.json";
  static constexpr const char* kFormat = "sim-table-spill-v1";
  static util::JsonValue encode(const SimTable& table) {
    return to_json(table);
  }
  static SimTable decode(const util::JsonValue& json) {
    return sim_table_from_json(json);
  }
  static core::GridSignature sign(const SimTable& table, const Context&) {
    return sim_signature(table.points, table.kinds, table.params);
  }
};

template <class Table>
class TieredStore {
 public:
  using Traits = StoreTraits<Table>;
  using Context = typename Traits::Context;
  using Ptr = std::shared_ptr<const Table>;

  /// Told, with the store's lock held, when tables change tier: the hook a
  /// layer keeping per-signature state (the analytic seed tier) stays
  /// consistent through. Implementations must not call into the store.
  class Listener {
   public:
    /// The disk tier gained files (one call per spill batch).
    virtual void on_spilled() = 0;
    /// `signature` left both tiers (evicted without a disk copy, or its
    /// spill was rejected).
    virtual void on_dropped(core::GridSignature signature) = 0;

   protected:
    ~Listener() = default;
  };

  struct Counters {
    std::size_t size = 0;  ///< tables in memory
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t disk_loads = 0;    ///< spills served after verification
    std::uint64_t disk_rejects = 0;  ///< spills rejected (corrupt/foreign)
  };

  /// `capacity` is the maximum number of retained tables; 0 disables the
  /// store — find always misses, insert is a no-op, `dir` is ignored.
  /// Otherwise a non-empty `dir` enables the disk tier: it is created if
  /// missing and its filenames are indexed (tables load on first use).
  TieredStore(std::size_t capacity, std::string dir,
              Listener* listener = nullptr);

  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  /// Memory-then-disk lookup; a verified disk load is promoted into the
  /// LRU. Sets *loaded_from_disk when the hit came from the disk tier.
  /// Counts one hit or miss.
  [[nodiscard]] Ptr find(core::GridSignature signature,
                         const Context& context,
                         bool* loaded_from_disk = nullptr) {
    return lookup(signature, context, loaded_from_disk, /*count=*/true);
  }

  /// find() without the hit/miss counters: reads on behalf of another
  /// tier (seed lookups) are not identity lookups.
  [[nodiscard]] Ptr fetch(core::GridSignature signature,
                          const Context& context) {
    return lookup(signature, context, nullptr, /*count=*/false);
  }

  /// Memory tier only, for callers that must not block on IO: the
  /// resident table when `accept(table)` holds, promoted and counted as a
  /// hit exactly like find(); otherwise null, with nothing promoted or
  /// counted. Never touches the disk tier. `accept` runs with the store's
  /// lock held (so "counted" and "served" are one decision) and must not
  /// call into the store.
  template <class Accept>
  [[nodiscard]] Ptr find_resident(core::GridSignature signature,
                                  Accept&& accept) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(signature.value);
    if (it == index_.end() || !accept(*it->second->table)) {
      return nullptr;
    }
    ++counters_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->table;
  }

  /// Inserts (or refreshes) an entry, evicting — and spilling — the
  /// least-recently-used tables when over capacity. Outstanding
  /// shared_ptrs to a replaced table stay valid.
  void insert(core::GridSignature signature, Ptr table) {
    if (capacity_ == 0) {
      return;
    }
    std::vector<Entry> victims;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = index_.find(signature.value);
      if (it != index_.end()) {
        it->second->table = std::move(table);
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
      }
      push_locked(signature, std::move(table), victims);
    }
    spill_unlocked(std::move(victims));
  }

  /// Non-mutating probe: would find() hit (memory or disk)? No LRU
  /// promotion, no counters, no IO. `true` for a disk-resident entry is
  /// optimistic (the file might still fail verification).
  [[nodiscard]] bool contains(core::GridSignature signature) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return index_.count(signature.value) != 0 ||
           disk_index_.count(signature.value) != 0;
  }

  /// Spills every in-memory entry not yet on disk, keeping it in memory;
  /// no-op without a disk tier.
  void persist_now() {
    std::vector<Entry> pending;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (dir_.empty()) {
        return;
      }
      for (const Entry& entry : lru_) {
        if (disk_index_.count(entry.signature.value) == 0) {
          pending.push_back(entry);
        }
      }
    }
    spill_unlocked(std::move(pending));
  }

  [[nodiscard]] Counters counters() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    Counters out = counters_;
    out.size = lru_.size();
    return out;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// The disk tier's directory; empty when the tier is disabled.
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  struct Entry {
    core::GridSignature signature;
    Ptr table;
  };

  Ptr lookup(core::GridSignature signature, const Context& context,
             bool* loaded_from_disk, bool count) {
    if (loaded_from_disk != nullptr) {
      *loaded_from_disk = false;
    }
    std::vector<Entry> victims;
    Ptr table;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = index_.find(signature.value);
      if (it != index_.end()) {
        counters_.hits += count ? 1 : 0;
        lru_.splice(lru_.begin(), lru_, it->second);  // iterator stays valid
        return it->second->table;
      }
      table = load_locked(signature, context);
      if (table == nullptr) {
        counters_.misses += count ? 1 : 0;
        return nullptr;
      }
      counters_.hits += count ? 1 : 0;
      push_locked(signature, table, victims);
    }
    spill_unlocked(std::move(victims));
    if (loaded_from_disk != nullptr) {
      *loaded_from_disk = true;
    }
    return table;
  }

  /// Writes `victims` (already out of the LRU) with the lock released,
  /// then re-locks to register the outcomes.
  void spill_unlocked(std::vector<Entry> victims);

  // Helpers below expect mutex_ to be held.

  /// Inserts at the LRU front and detaches the over-capacity tail into
  /// `victims` — the ones without a disk copy yet; the caller spills them.
  void push_locked(core::GridSignature signature, Ptr table,
                   std::vector<Entry>& victims) {
    lru_.push_front(Entry{signature, std::move(table)});
    index_[signature.value] = lru_.begin();
    while (lru_.size() > capacity_) {
      Entry& victim = lru_.back();
      index_.erase(victim.signature.value);
      if (dir_.empty()) {
        drop_locked(victim.signature);
      } else if (disk_index_.count(victim.signature.value) == 0) {
        victims.push_back(std::move(victim));
      }
      // Otherwise already spilled: the file content is a pure function of
      // the signature, so rewriting it would only waste IO.
      lru_.pop_back();
    }
  }

  void drop_locked(core::GridSignature signature) {
    if (listener_ != nullptr) {
      listener_->on_dropped(signature);
    }
  }

  /// Verifies and parses the signature's spill; a rejected file is
  /// warned about, counted and forgotten.
  Ptr load_locked(core::GridSignature signature, const Context& context);
  [[nodiscard]] std::string path(core::GridSignature signature) const;

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::string dir_;
  Listener* listener_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, typename std::list<Entry>::iterator>
      index_;
  /// Signatures with a (not yet rejected) file in the disk tier.
  std::unordered_set<std::uint64_t> disk_index_;
  Counters counters_;
};

extern template class TieredStore<core::SweepTable>;
extern template class TieredStore<SimTable>;

}  // namespace resilience::service
