#include "resilience/service/tiered_store.hpp"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "resilience/util/atomic_file.hpp"

namespace resilience::service {

namespace {

namespace fs = std::filesystem;

void warn(const char* what, const std::string& detail) {
  std::fprintf(stderr, "SweepCache: %s (%s)\n", what, detail.c_str());
}

/// FNV-1a 64 over the spilled payload bytes. The filename signature only
/// covers the table's *inputs*, so without this a flipped bit inside a
/// result field would verify clean; the payload checksum closes that hole.
/// Carried as a GridSignature purely for its hex round trip.
core::GridSignature payload_checksum(const std::string& payload) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char byte : payload) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return core::GridSignature{hash};
}

/// Wraps `table` with `format` and its payload checksum and writes it
/// atomically (unique temp file + rename), so a concurrent lazy load only
/// ever sees a complete document. False, after a warning, on failure.
bool write_spill(const std::string& path, const char* format,
                 const util::JsonValue& table) {
  // Assembled textually — every component is already canonical JSON, and
  // parse -> re-dump of the payload is byte-identical, which is what lets
  // read_spill() re-derive the checksum.
  const std::string payload = table.dump();
  const std::string document =
      std::string("{\"format\":\"") + format + "\",\"payload_fnv\":\"" +
      payload_checksum(payload).hex() + "\",\"table\":" + payload + "}";
  std::string error;
  if (!util::write_file_atomic(path, document, &error)) {
    warn("spill failed", error);
    return false;
  }
  return true;
}

/// The payload of the spill at `path` if it carries `format` and re-hashes
/// to its checksum; otherwise warns and returns nullopt. Throws when the
/// file does not parse (the caller rejects it).
std::optional<util::JsonValue> read_spill(const std::string& path,
                                          const char* format) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    warn("cannot open spill file", path);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const util::JsonValue document = util::JsonValue::parse(buffer.str());
  const util::JsonValue* tag = document.find("format");
  const util::JsonValue* checksum = document.find("payload_fnv");
  const util::JsonValue* table = document.find("table");
  if (tag == nullptr || tag->as_string() != format || checksum == nullptr ||
      table == nullptr) {
    warn("rejecting spill file with unknown format", path);
    return std::nullopt;
  }
  // Result-field integrity: the payload's canonical re-dump must hash back
  // to the stored checksum (parse -> dump is byte-identical, so this
  // validates the original payload bytes, cells included).
  const auto stored = core::GridSignature::from_hex(checksum->as_string());
  if (!stored || payload_checksum(table->dump()) != *stored) {
    warn("rejecting spill file whose payload checksum does not match", path);
    return std::nullopt;
  }
  return *table;
}

}  // namespace

template <class Table>
TieredStore<Table>::TieredStore(std::size_t capacity, std::string dir,
                                Listener* listener)
    : capacity_(capacity),
      dir_(capacity == 0 ? std::string() : std::move(dir)),
      listener_(listener) {
  if (dir_.empty()) {
    return;
  }
  try {
    fs::create_directories(dir_);
    const std::string suffix = Traits::kSuffix;
    for (const fs::directory_entry& file : fs::directory_iterator(dir_)) {
      const std::string name = file.path().filename().string();
      if (!file.is_regular_file() || !name.ends_with(suffix)) {
        continue;
      }
      // Strict 16-digit hex: '<hex>.sim.json' never parses as an analytic
      // '<stem>.json', nor the seed sidecar as either.
      if (const auto signature = core::GridSignature::from_hex(
              name.substr(0, name.size() - suffix.size()))) {
        disk_index_.insert(signature->value);
      }
    }
  } catch (const std::exception& error) {
    warn("cannot index cache directory; disk tier disabled", error.what());
    disk_index_.clear();
    dir_.clear();
  }
}

template <class Table>
void TieredStore<Table>::spill_unlocked(std::vector<Entry> victims) {
  if (victims.empty()) {
    return;
  }
  std::vector<bool> written;
  for (const Entry& victim : victims) {
    written.push_back(write_spill(path(victim.signature), Traits::kFormat,
                                  Traits::encode(*victim.table)));
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  bool spilled = false;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const core::GridSignature signature = victims[i].signature;
    if (written[i]) {
      disk_index_.insert(signature.value);
      spilled = true;
    } else if (index_.count(signature.value) == 0) {
      drop_locked(signature);  // and nobody re-inserted it meanwhile
    }
  }
  if (spilled && listener_ != nullptr) {
    listener_->on_spilled();
  }
}

template <class Table>
typename TieredStore<Table>::Ptr TieredStore<Table>::load_locked(
    core::GridSignature signature, const Context& context) {
  if (disk_index_.count(signature.value) == 0) {
    return nullptr;
  }
  const std::string file = path(signature);
  try {
    if (const auto payload = read_spill(file, Traits::kFormat)) {
      Table loaded = Traits::decode(*payload);
      // The content must re-sign to the filename: a foreign spill (or one
      // written under another configuration) is never served.
      const core::GridSignature recomputed = Traits::sign(loaded, context);
      if (recomputed == signature) {
        ++counters_.disk_loads;
        return std::make_shared<const Table>(std::move(loaded));
      }
      warn("rejecting spill file whose content does not match its signature",
           file + ": content hashes to " + recomputed.hex());
    }
  } catch (const std::exception& error) {
    warn("rejecting unparseable spill file", file + ": " + error.what());
  }
  // Stop advertising the file: serving it later would repeat the failure.
  // Loads only follow memory misses, so the table left both tiers.
  ++counters_.disk_rejects;
  disk_index_.erase(signature.value);
  drop_locked(signature);
  return nullptr;
}

template <class Table>
std::string TieredStore<Table>::path(core::GridSignature signature) const {
  return (fs::path(dir_) / (signature.hex() + Traits::kSuffix)).string();
}

template class TieredStore<core::SweepTable>;
template class TieredStore<SimTable>;

}  // namespace resilience::service
