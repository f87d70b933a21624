#include "host_probe.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_map>

#include "replay.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kChaseEntries = 1u << 20;
constexpr std::uint32_t kTableEntries = 1u << 18;
constexpr std::uint32_t kKeys = 50'000;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

HostProbe::HostProbe() : chase_(kChaseEntries), table_(kTableEntries), keys_(kKeys) {
  std::vector<std::uint32_t> order(kChaseEntries);
  std::iota(order.begin(), order.end(), 0u);
  std::mt19937_64 rng(42);
  std::shuffle(order.begin(), order.end(), rng);
  for (std::uint32_t i = 0; i < kChaseEntries; ++i) {
    chase_[order[i]] = order[(i + 1) % kChaseEntries];
  }
  for (std::uint32_t& k : keys_) k = static_cast<std::uint32_t>(rng()) | 1u;
}

double HostProbe::measure() {
  const Clock::time_point start = Clock::now();

  // Allocation churn: many small heap blocks, touched and freed.
  {
    std::vector<std::vector<std::uint32_t>> blocks;
    blocks.reserve(20'000);
    for (std::uint32_t i = 0; i < 20'000; ++i) blocks.emplace_back(16 + i % 64, i);
    for (const auto& b : blocks) sink_ += b[3];
  }

  // Node-based hash map: inserts, then lookups that mostly miss.
  {
    std::unordered_map<std::uint32_t, std::uint32_t> map;
    for (const std::uint32_t k : keys_) map[k] += k;
    for (const std::uint32_t k : keys_) {
      const auto it = map.find(k ^ 2u);
      sink_ += it == map.end() ? 1 : it->second;
    }
  }

  // Open addressing in a preallocated table: random stores and probes.
  {
    std::fill(table_.begin(), table_.end(), 0u);
    const std::uint32_t mask = kTableEntries - 1;
    for (const std::uint32_t k : keys_) {
      std::uint32_t h = (k * 2654435761u) & mask;
      while (table_[h] != 0 && table_[h] != k) h = (h + 1) & mask;
      table_[h] = k;
    }
    std::uint64_t x = 88172645463325252ull;
    for (std::uint32_t i = 0; i < 1'000'000; ++i) table_[xorshift(x) & mask] += i;
  }

  // Dependent random reads over 4 MiB.
  {
    std::uint32_t j = 0;
    for (std::uint32_t i = 0; i < 200'000; ++i) j = chase_[j];
    sink_ += j;
  }

  const double seconds = seconds_since(start);
  sink_ += table_[sink_ & (kTableEntries - 1)];
  return seconds;
}

}  // namespace perfbench
