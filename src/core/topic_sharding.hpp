// Topic -> shard assignment for the sharded Primary hot path.
//
// Every topic maps to exactly one shard for the lifetime of the process,
// so per-topic admission and EDF pop order inside a shard are identical to
// the single-queue order restricted to that topic — the only ordering
// Lemmas 1 and 2 rely on (deadlines are per message, never cross-topic).
// The promotion-time dedup bitmap and retention replay route through the
// same mapping, which keeps each (topic, seq) bit owned by one shard.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <thread>

#include "common/types.hpp"

namespace frame {

/// Upper bound on shards a broker will run; obs sizes its per-shard
/// instrument slots and SLO fold by it (obs/hooks.cpp, obs/slo.hpp).
inline constexpr std::size_t kMaxShards = 32;

/// splitmix64: cheap avalanche so dense topic ids 0..n-1 spread across
/// shards instead of landing modulo-adjacent.
inline std::uint64_t shard_hash(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The consistent topic -> shard map.  `shards` == 1 puts everything on
/// shard 0 (today's single-queue behaviour).
inline std::size_t shard_of_topic(TopicId topic, std::size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(shard_hash(topic) % shards);
}

/// Resolves a configured shard count: nonzero is clamped to
/// [1, kMaxShards]; 0 means auto — the FRAME_SHARDS environment variable
/// when set (the test/CI matrix knob), otherwise hardware_concurrency
/// capped at 8 (more lanes than cores only adds contention).
inline std::size_t resolve_shard_count(std::size_t requested) {
  const auto clamp = [](long long n) -> std::size_t {
    if (n < 1) return 1;
    if (n > static_cast<long long>(kMaxShards)) return kMaxShards;
    return static_cast<std::size_t>(n);
  };
  if (requested != 0) return clamp(static_cast<long long>(requested));
  if (const char* env = std::getenv("FRAME_SHARDS")) {
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end != env && parsed > 0) return clamp(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return 1;
  return clamp(static_cast<long long>(hw > 8 ? 8 : hw));
}

}  // namespace frame
