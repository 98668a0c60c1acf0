#include "serve/router.hpp"

#include <algorithm>
#include <string>

#include "model/fingerprint.hpp"
#include "support/error.hpp"

namespace sspred::serve {

namespace {

/// Ring points per shard (see router.hpp).
constexpr std::size_t kVnodes = 64;

}  // namespace

ShardRouter::ShardRouter(std::size_t shards) : shards_(shards) {
  SSPRED_REQUIRE(shards >= 1, "router needs at least one shard");
  if (shards == 1) return;  // ring unused; route() short-circuits
  ring_.reserve(shards * kVnodes);
  std::string label;
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t v = 0; v < kVnodes; ++v) {
      // The vnode position is the digest of a canonical "shard/vnode"
      // label, so ring layout is deterministic across runs and across
      // ring sizes (shard s's points don't move when shard s+1 joins).
      label.assign("shard-");
      label += std::to_string(s);
      label += "/vnode-";
      label += std::to_string(v);
      ring_.push_back({model::hash_bytes(label), static_cast<std::uint32_t>(s)});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const Point& a, const Point& b) {
              return a.position < b.position ||
                     (a.position == b.position && a.shard < b.shard);
            });
}

std::size_t ShardRouter::route(std::string_view structure_key) const {
  return route_hash(model::hash_bytes(structure_key));
}

std::size_t ShardRouter::route_hash(std::uint64_t key_hash) const {
  if (shards_ == 1) return 0;
  // First ring point at or after the hash, wrapping past the top.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key_hash,
      [](const Point& p, std::uint64_t h) { return p.position < h; });
  if (it == ring_.end()) it = ring_.begin();
  return it->shard;
}

std::vector<std::size_t> ShardRouter::replica_set(
    std::string_view structure_key, std::size_t replicas) const {
  return replica_set_hash(model::hash_bytes(structure_key), replicas);
}

std::vector<std::size_t> ShardRouter::replica_set_hash(
    std::uint64_t key_hash, std::size_t replicas) const {
  const std::size_t want = std::min(std::max<std::size_t>(replicas, 1),
                                    shards_);
  std::vector<std::size_t> set;
  set.reserve(want);
  if (shards_ == 1) {
    set.push_back(0);
    return set;
  }
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), key_hash,
      [](const Point& p, std::uint64_t h) { return p.position < h; });
  // Walk clockwise (wrapping) collecting distinct shards; one full lap
  // visits every shard's vnodes, so the loop always terminates with
  // `want` members.
  for (std::size_t steps = 0; steps < ring_.size() && set.size() < want;
       ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    const std::size_t shard = it->shard;
    if (std::find(set.begin(), set.end(), shard) == set.end()) {
      set.push_back(shard);
    }
    ++it;
  }
  return set;
}

}  // namespace sspred::serve
