#ifndef VREC_SERVER_RESULT_CACHE_H_
#define VREC_SERVER_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/recommender.h"
#include "util/sync.h"

namespace vrec::server {

/// Bounded LRU cache over *encoded* by-id query responses.
///
/// The by-id serving path is fully determined by (video id, k) once the
/// recommender's configuration and corpus are fixed, so the cache stores the
/// exact response frame a miss produced and replays those bytes on a hit —
/// hits are bit-for-bit identical to misses by construction. Configuration
/// is pinned at construction via an options fingerprint baked into the
/// instance (one server owns one recommender); corpus changes are caught by
/// the generation stamp: every entry records the Recommender::generation()
/// it was computed under, and a lookup whose caller-supplied generation
/// differs erases the entry and reports a miss (counted as `invalidated`).
///
/// Thread-safe: the reactor thread looks up, the batcher worker inserts.
class ResultCache {
 public:
  /// `capacity` 0 disables the cache (every Lookup misses, Insert drops).
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The cached response frame for (video, k), if present and stamped with
  /// `generation`. A stale entry is erased and counted as invalidated (the
  /// lookup still reports a miss).
  [[nodiscard]]
  std::optional<std::vector<uint8_t>> Lookup(int64_t video, int k,
                                             uint64_t generation);

  /// Stores the encoded response frame for (video, k) computed under
  /// `generation`, evicting the least-recently-used entry when full.
  /// Re-inserting an existing key overwrites and refreshes its recency.
  void Insert(int64_t video, int k, uint64_t generation,
              std::vector<uint8_t> frame);

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;       // includes invalidated lookups
    uint64_t evictions = 0;    // capacity-pressure removals
    uint64_t invalidated = 0;  // generation-mismatch removals
  };
  Counters counters() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Key {
    int64_t video = -1;
    int k = 0;
    bool operator==(const Key& other) const {
      return video == other.video && k == other.k;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // Splitmix-style mix of the two fields; k lives in the high bits so
      // (v, k) and (v', k') collide no more than a single mixed word does.
      uint64_t x = static_cast<uint64_t>(key.video) +
                   (static_cast<uint64_t>(static_cast<uint32_t>(key.k)) << 32);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  struct Entry {
    Key key;
    uint64_t generation = 0;
    std::vector<uint8_t> frame;
  };

  const size_t capacity_;
  mutable util::Mutex mutex_;
  /// front = most recently used; index_ maps keys to their lru_ node. One
  /// lock covers both so the list and the map can never disagree.
  std::list<Entry> lru_ VREC_GUARDED_BY(mutex_);
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_
      VREC_GUARDED_BY(mutex_);
  Counters counters_ VREC_GUARDED_BY(mutex_);
};

/// A coarse fingerprint of every RecommenderOptions field that can change
/// by-id results, for keying cached responses across server restarts or in
/// multi-tenant setups (within one server the recommender is fixed, so the
/// fingerprint mostly documents *why* the in-process cache may omit the
/// options from its key). FNV-1a over the scoring-relevant fields only —
/// threading knobs are deliberately excluded because they cannot alter
/// results.
[[nodiscard]]
uint64_t OptionsFingerprint(const core::RecommenderOptions& options);

}  // namespace vrec::server

#endif  // VREC_SERVER_RESULT_CACHE_H_
