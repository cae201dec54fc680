#include "resilience/service/sweep_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "resilience/util/atomic_file.hpp"
#include "resilience/util/json.hpp"

namespace resilience::service {

namespace {

constexpr const char* kSidecarName = "seed_index.json";

void warn(const char* what, const std::string& detail) {
  std::fprintf(stderr, "SweepCache: %s (%s)\n", what, detail.c_str());
}

}  // namespace

SweepCache::SweepCache(std::size_t capacity, std::string cache_dir)
    : tables_(capacity, cache_dir, this), sims_(capacity, cache_dir) {
  if (!tables_.dir().empty()) {
    load_sidecar();
  }
}

SweepCache::~SweepCache() {
  try {
    tables_.persist_now();  // the sidecar follows through on_spilled
    sims_.persist_now();
  } catch (...) {
    // Destructor: a failed spill only loses warmth, never correctness.
  }
}

void SweepCache::insert(core::GridSignature signature, TablePtr table,
                        std::vector<core::GridChain> chains) {
  if (tables_.capacity() == 0) {
    return;
  }
  {
    // Indexed first: a seed lookup racing ahead of the insert finds no
    // table under the signature yet and simply skips it.
    const std::lock_guard<std::mutex> lock(seed_mutex_);
    std::vector<core::GridChain>& entry = chains_[signature.value];
    unindex_chains_locked(signature, entry);
    entry = std::move(chains);
    index_chains_locked(signature, entry);
  }
  tables_.insert(signature, std::move(table));
}

std::vector<core::ChainSeed> SweepCache::seeds_for(
    core::ChainKey key, const core::SweepOptions& options) {
  // Snapshot the owners' chains, then read their tables with the
  // seed lock released: a disk promotion may evict, which re-enters the
  // seed tier through on_dropped/on_spilled.
  std::vector<std::pair<core::GridSignature, std::vector<core::GridChain>>>
      owners;
  {
    const std::lock_guard<std::mutex> lock(seed_mutex_);
    const auto it = seed_index_.find(key.value);
    if (it == seed_index_.end()) {
      return {};
    }
    for (const std::uint64_t signature_value : it->second) {
      owners.emplace_back(core::GridSignature{signature_value},
                          chains_.at(signature_value));
    }
  }

  std::vector<core::ChainSeed> seeds;
  for (const auto& [signature, chains] : owners) {
    const TablePtr table = tables_.fetch(signature, options);
    if (table == nullptr) {
      continue;
    }
    for (const core::GridChain& chain : chains) {
      if (chain.key != key) {
        continue;
      }
      const auto kind_index = static_cast<std::size_t>(chain.kind);
      if (kind_index >= table->kind_slot.size() ||
          table->kind_slot[kind_index] < 0) {
        continue;  // family absent from the table (stale sidecar entry)
      }
      for (std::size_t p = 0; p < table->points.size(); ++p) {
        const core::ScenarioPoint& point = table->points[p];
        if (point.platform_index != chain.platform_index ||
            point.cost_index != chain.cost_index) {
          continue;
        }
        seeds.push_back(core::ChainSeed{point.platform.nodes, point.params,
                                        table->cell(p, chain.kind)});
      }
    }
  }
  if (!seeds.empty()) {
    seed_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  return seeds;
}

bool SweepCache::has_seeds(core::ChainKey key) const {
  const std::lock_guard<std::mutex> lock(seed_mutex_);
  return seed_index_.find(key.value) != seed_index_.end();
}

void SweepCache::on_spilled() {
  const std::lock_guard<std::mutex> lock(seed_mutex_);
  write_sidecar_locked();
}

void SweepCache::on_dropped(core::GridSignature signature) {
  // The optima are unreachable: stop advertising them.
  const std::lock_guard<std::mutex> lock(seed_mutex_);
  const auto it = chains_.find(signature.value);
  if (it != chains_.end()) {
    unindex_chains_locked(signature, it->second);
    chains_.erase(it);
  }
}

void SweepCache::index_chains_locked(
    core::GridSignature signature, const std::vector<core::GridChain>& chains) {
  for (const core::GridChain& chain : chains) {
    std::vector<std::uint64_t>& owners = seed_index_[chain.key.value];
    if (std::find(owners.begin(), owners.end(), signature.value) ==
        owners.end()) {
      owners.push_back(signature.value);
    }
  }
}

void SweepCache::unindex_chains_locked(
    core::GridSignature signature, const std::vector<core::GridChain>& chains) {
  for (const core::GridChain& chain : chains) {
    const auto it = seed_index_.find(chain.key.value);
    if (it == seed_index_.end()) {
      continue;
    }
    it->second.erase(
        std::remove(it->second.begin(), it->second.end(), signature.value),
        it->second.end());
    if (it->second.empty()) {
      seed_index_.erase(it);
    }
  }
}

void SweepCache::write_sidecar_locked() {
  // Deterministic: entries sorted by signature. Tables still only in
  // memory are listed too; a restart skips entries without a spill file.
  std::vector<std::uint64_t> signatures;
  for (const auto& [signature_value, chains] : chains_) {
    signatures.push_back(signature_value);
  }
  std::sort(signatures.begin(), signatures.end());

  util::JsonValue entries = util::JsonValue::array();
  for (const std::uint64_t signature_value : signatures) {
    util::JsonValue chains = util::JsonValue::array();
    for (const core::GridChain& chain : chains_[signature_value]) {
      util::JsonValue chain_json = util::JsonValue::object();
      chain_json.set("key", chain.key.hex());
      chain_json.set("platform_index", chain.platform_index);
      chain_json.set("cost_index", chain.cost_index);
      chain_json.set("kind", core::pattern_name(chain.kind));
      chains.push_back(std::move(chain_json));
    }
    util::JsonValue entry = util::JsonValue::object();
    entry.set("signature", core::GridSignature{signature_value}.hex());
    entry.set("chains", std::move(chains));
    entries.push_back(std::move(entry));
  }
  util::JsonValue sidecar = util::JsonValue::object();
  sidecar.set("version", 1);
  sidecar.set("entries", std::move(entries));

  // Atomic like the spill files themselves: a truncated sidecar would
  // poison the next startup's seed index for every spilled table at once.
  std::string error;
  if (!util::write_file_atomic(sidecar_path(), sidecar.dump(2), &error)) {
    warn("seed sidecar write failed", error);
  }
}

void SweepCache::load_sidecar() {
  if (!std::filesystem::exists(sidecar_path())) {
    return;
  }
  try {
    std::ifstream in(sidecar_path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const util::JsonValue sidecar = util::JsonValue::parse(buffer.str());
    const util::JsonValue* entries = sidecar.find("entries");
    if (entries == nullptr) {
      return;
    }
    for (const util::JsonValue& entry : entries->as_array()) {
      const util::JsonValue* signature_json = entry.find("signature");
      const util::JsonValue* chains_json = entry.find("chains");
      if (signature_json == nullptr || chains_json == nullptr) {
        continue;
      }
      const auto signature =
          core::GridSignature::from_hex(signature_json->as_string());
      if (!signature || !tables_.contains(*signature)) {
        continue;  // sidecar entry without a spill file
      }
      std::vector<core::GridChain> chains;
      for (const util::JsonValue& chain_json : chains_json->as_array()) {
        const util::JsonValue* key = chain_json.find("key");
        const util::JsonValue* platform = chain_json.find("platform_index");
        const util::JsonValue* cost = chain_json.find("cost_index");
        const util::JsonValue* kind = chain_json.find("kind");
        const auto chain_key = key == nullptr
                                   ? std::nullopt
                                   : core::ChainKey::from_hex(key->as_string());
        if (!chain_key || platform == nullptr || cost == nullptr ||
            kind == nullptr) {
          continue;
        }
        chains.push_back(core::GridChain{
            static_cast<std::size_t>(platform->as_double()),
            static_cast<std::size_t>(cost->as_double()),
            core::pattern_kind_from_name(kind->as_string()), *chain_key});
      }
      // A signature listed twice keeps its last entry, indexed alone.
      const std::lock_guard<std::mutex> lock(seed_mutex_);
      std::vector<core::GridChain>& recorded = chains_[signature->value];
      unindex_chains_locked(*signature, recorded);
      recorded = std::move(chains);
      index_chains_locked(*signature, recorded);
    }
  } catch (const std::exception& error) {
    // A corrupt sidecar only costs seed reuse; the identity tier still
    // verifies every file it loads.
    warn("ignoring unreadable seed sidecar", error.what());
  }
}

std::string SweepCache::sidecar_path() const {
  return (std::filesystem::path(tables_.dir()) / kSidecarName).string();
}

}  // namespace resilience::service
