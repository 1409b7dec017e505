#pragma once
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/blob_store.hpp"
#include "core/eval_backend.hpp"

namespace syndcim::dse {

/// Canonical serialization of every `MacroConfig` field. Two configs get
/// the same string iff they are architecturally identical (doubles are
/// rendered as hexfloat, so no two distinct values collide by rounding).
[[nodiscard]] std::string canonical_config_key(
    const rtlgen::MacroConfig& cfg);

/// Canonical serialization of the `PerfSpec` fields that influence the
/// evaluation outcome: the timing knobs (frequencies, voltage, margin).
/// PPA *preference* weights are deliberately excluded — they only affect
/// final selection, so specs differing in preference alone share cache
/// entries.
[[nodiscard]] std::string canonical_spec_knobs_key(const core::PerfSpec& s);

/// 64-bit FNV-1a over the canonical serializations.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& s);
[[nodiscard]] std::uint64_t hash_config(const rtlgen::MacroConfig& cfg);
[[nodiscard]] std::uint64_t hash_spec_knobs(const core::PerfSpec& s);

/// Full cache key of one evaluation: configuration x spec timing knobs.
[[nodiscard]] std::string eval_key(const rtlgen::MacroConfig& cfg,
                                   const core::PerfSpec& spec);

struct EvalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Times a thread found the entry being computed by another thread and
  /// waited for it instead of recomputing (in-flight deduplication).
  std::uint64_t inflight_waits = 0;
  /// Wall time spent inside miss-path evaluations.
  double miss_eval_ms = 0.0;
  std::size_t entries = 0;
  std::size_t loaded = 0;    ///< outcomes served from the blob store
  std::size_t rejected = 0;  ///< stored outcomes that failed to decode
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Blob-store key prefix of an eval cache over `lib`: "eval1|" + the
/// library fingerprint + "|". Eval keys do not cover the cell library, so
/// outcomes persisted under another library are never served.
[[nodiscard]] std::string eval_store_prefix(const cell::Library& lib);

/// Versioned binary record of all 13 `EvalOutcome` fields (doubles as
/// raw IEEE-754 bits, so a round trip is bit-exact) — the payload of the
/// blob store's `evals` tier. The decoder throws core::BinDecodeError on
/// a wrong version, a truncated payload or trailing bytes.
[[nodiscard]] std::string encode_eval_outcome(const core::EvalOutcome& o);
[[nodiscard]] core::EvalOutcome decode_eval_outcome(std::string_view payload);

/// Thread-safe content-hashed memoization of `EvalBackend::evaluate`.
/// Sharded (key-hash chooses the shard) so concurrent lookups rarely
/// contend; a miss marks the entry in-flight so that concurrent requests
/// for the same key wait for the first computation instead of repeating
/// it. With a blob store attached, outcomes persist across processes.
class EvalCache {
 public:
  /// Blob-store tier the outcomes persist under.
  static constexpr const char* kStoreTier = "evals";

  EvalCache() = default;

  /// Return the cached outcome for `key`, computing it with `compute` on
  /// a miss. Concurrent callers with the same key block until the first
  /// caller's computation lands (and then count it as a hit).
  core::EvalOutcome get_or_compute(
      const std::string& key,
      const std::function<core::EvalOutcome()>& compute);

  /// Persists outcomes in tier `evals` of `store` under `key_prefix` +
  /// eval key, where `key_prefix` is eval_store_prefix() of the library
  /// the outcomes are computed with. A miss reads the store first (while
  /// the key is in flight): a decoded outcome counts as a hit and as
  /// `loaded`, an undecodable one as `rejected` and is recomputed. Every
  /// computed outcome is written straight through with `put`. Call
  /// before concurrent use; nullptr detaches. `store` must outlive the
  /// cache or a later detach.
  void attach_blob_store(core::BlobStore* store, std::string key_prefix);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] EvalCacheStats stats() const;

 private:
  static constexpr std::size_t kShards = 16;
  struct Entry {
    core::EvalOutcome outcome;
    bool ready = false;  ///< false while the first caller is computing
  };
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::string, Entry> map;
  };
  Shard& shard_for(const std::string& key) {
    return shards_[fnv1a64(key) % kShards];
  }
  const Shard& shard_for(const std::string& key) const {
    return shards_[fnv1a64(key) % kShards];
  }

  /// The outcome the attached store holds for `key`, if it decodes.
  std::optional<core::EvalOutcome> load_stored(const std::string& key);

  Shard shards_[kShards];
  core::BlobStore* store_ = nullptr;
  std::string store_prefix_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inflight_waits_{0};
  std::atomic<std::uint64_t> miss_eval_ns_{0};
  std::atomic<std::uint64_t> loaded_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

/// EvalBackend decorator: memoizes `inner` through `cache`. Thread-safe
/// iff `inner` is (the SCL-backed default, `core::SclEvalBackend`, is).
class CachedEvalBackend final : public core::EvalBackend {
 public:
  CachedEvalBackend(core::EvalBackend& inner, EvalCache& cache)
      : inner_(inner), cache_(cache) {}
  core::EvalOutcome evaluate(const rtlgen::MacroConfig& cfg,
                             const core::PerfSpec& spec) override {
    return cache_.get_or_compute(
        eval_key(cfg, spec), [&] { return inner_.evaluate(cfg, spec); });
  }

 private:
  core::EvalBackend& inner_;
  EvalCache& cache_;
};

}  // namespace syndcim::dse
