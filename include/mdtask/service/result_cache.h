// Bounded LRU result cache with in-flight deduplication.
//
// Keyed by RequestKey (store fingerprint + analysis family + canonical
// params): two requests with the same key have the same answer, so
//
//  * a completed answer is served from the cache (kHit),
//  * a request whose key is ALREADY BEING COMPUTED joins the in-flight
//    computation instead of starting a second one (kJoined); the
//    caller keeps its joiners and hands them the owner's result,
//  * otherwise the caller becomes the owner (kMiss): it must run the
//    computation and call fulfill() exactly once with the outcome.
//
// A failed owner leaves the cache UNPOISONED: nothing is inserted, and
// the next lookup for that key is a fresh kMiss. Capacity is bounded
// both by entry count and by payload bytes; eviction is strict LRU.
// With `enabled = false` every lookup is a kMiss and fulfill() is a
// no-op — each duplicate request then costs its own engine execution,
// which is exactly the comparison bench_service's cache on/off table
// makes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mdtask/common/error.h"
#include "mdtask/service/request.h"

namespace mdtask::service {

/// One analysis answer. `values` is the engine's numeric output;
/// `weight_bytes` is the capacity charge (0 = derive from values).
struct ResultPayload {
  std::vector<double> values;
  std::uint64_t weight_bytes = 0;
  /// True when this answer was computed for a DIFFERENT store snapshot
  /// of the same analysis (brownout stale-serve); callers must treat it
  /// as advisory. Entries are cached with stale = false.
  bool stale = false;

  std::uint64_t charge() const noexcept {
    return weight_bytes != 0
               ? weight_bytes
               : static_cast<std::uint64_t>(values.size()) * sizeof(double);
  }
};

using CachedResult = Result<std::shared_ptr<const ResultPayload>>;

struct CacheConfig {
  std::size_t max_entries = 1024;
  std::uint64_t max_bytes = 64ull << 20;
  bool enabled = true;
};

/// Not thread-safe: ServicePipeline is its one caller, and the live
/// AnalysisService makes every pipeline call under its own mutex.
class ResultCache {
 public:
  enum class Outcome : std::uint8_t { kHit, kJoined, kMiss };

  struct Lookup {
    Outcome outcome = Outcome::kMiss;
    /// The cached answer on kHit; nullptr otherwise.
    std::shared_ptr<const ResultPayload> payload;
  };

  explicit ResultCache(CacheConfig config) : config_(config) {}
  ResultCache() : ResultCache(CacheConfig{}) {}

  /// Classifies `key` as hit / joined / miss (see file comment). A
  /// kMiss caller owns the computation and must fulfill() once.
  Lookup lookup_or_join(const RequestKey& key);

  /// Owner delivers the outcome for `key`: the key leaves the in-flight
  /// set, and a success is inserted (evicting LRU entries past the
  /// capacity bounds). An error caches nothing.
  void fulfill(const RequestKey& key, const CachedResult& result);

  /// Evicts every COMPLETED entry computed against `store` (a
  /// re-ingested trajectory invalidates all of its cached answers).
  /// In-flight computations are untouched: their owners were admitted
  /// against the old bytes and still resolve their joiners. Returns the
  /// number of entries evicted.
  std::size_t invalidate_store(std::uint64_t store);

  /// Brownout stale-serve: the freshest cached answer for the SAME
  /// analysis (family + params) computed against a DIFFERENT store
  /// snapshot, flagged stale = true, or nullptr. Scans LRU order, so
  /// the result is deterministic for a given access history. Does not
  /// touch recency or in-flight state.
  std::shared_ptr<const ResultPayload> lookup_stale(const RequestKey& key);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inflight_joins = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;  ///< entries dropped by invalidate_store
    std::uint64_t stale_serves = 0;   ///< lookup_stale answers handed out
  };

  Stats stats() const;
  std::size_t entries() const;
  std::uint64_t bytes() const;

  const CacheConfig& config() const noexcept { return config_; }

 private:
  struct Entry {
    std::shared_ptr<const ResultPayload> payload;
    std::list<RequestKey>::iterator lru;  ///< position in lru_
  };

  /// Evicts LRU entries until both capacity bounds hold.
  void evict_to_capacity();

  CacheConfig config_;
  std::unordered_map<RequestKey, Entry, RequestKeyHash> entries_;
  std::list<RequestKey> lru_;  ///< front = most recently used
  std::unordered_set<RequestKey, RequestKeyHash> inflight_;
  std::uint64_t bytes_ = 0;
  Stats stats_;
};

}  // namespace mdtask::service
