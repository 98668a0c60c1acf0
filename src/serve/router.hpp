// Consistent-hash routing of requests to prediction shards.
//
// The serving stack shards by *model structure*: every request carries a
// structure key (the canonical fingerprint of the model it evaluates, see
// model/fingerprint.hpp), and all requests for one structure land on one
// shard. That affinity is what makes sharding an algorithmic win rather
// than just a parallelism one — a shard's program cache holds exactly the
// structures it serves, and its completed-prediction FIFOs never
// interleave families.
//
// The ring is the classic consistent-hash construction: each shard owns
// 64 pseudo-random points (vnodes) on the 64-bit ring; a key routes to
// the first shard point clockwise from the key's hash. With 64 vnodes
// the keyspace splits evenly (CV of shard share ~ 1/sqrt(64)), and
// adding/removing a shard moves only ~1/S of the keyspace — routing for
// surviving shards is stable, which keeps their caches warm.
//
// The router is immutable after construction; lookups are lock-free
// binary searches, safe from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace sspred::serve {

class ShardRouter {
 public:
  /// Builds the ring for `shards` shards with 64 points each.
  explicit ShardRouter(std::size_t shards);

  /// Shard owning `structure_key`'s hash. O(log(S * vnodes)).
  [[nodiscard]] std::size_t route(std::string_view structure_key) const;

  /// Shard owning a precomputed key hash (requests carry the hash so the
  /// hot path never re-hashes the key string).
  [[nodiscard]] std::size_t route_hash(std::uint64_t key_hash) const;

  /// R-way replica set for a key: the first `replicas` DISTINCT shards
  /// clockwise from the key's hash (the primary — route()'s answer —
  /// first, then its failover successors in ring order). Capped at the
  /// shard count; the order is deterministic, so every frontend derives
  /// the same failover sequence for a key.
  [[nodiscard]] std::vector<std::size_t> replica_set(
      std::string_view structure_key, std::size_t replicas) const;
  [[nodiscard]] std::vector<std::size_t> replica_set_hash(
      std::uint64_t key_hash, std::size_t replicas) const;

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

 private:
  struct Point {
    std::uint64_t position;
    std::uint32_t shard;
  };

  std::size_t shards_;
  std::vector<Point> ring_;  ///< sorted by position
};

}  // namespace sspred::serve
