#include "probe.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <vector>

#include "trace.h"

namespace perfbench {
namespace {

constexpr int kHeapRounds = 6;
constexpr int kHeapItems = 4000;
constexpr int kVectors = 3000;
constexpr int kAllocRounds = 16;
constexpr int kMapOps = 12000;
constexpr std::uint64_t kMapKeys = 40000;

// Keeps the kernel's result observable so it cannot be optimized away.
volatile std::uint64_t probe_sink = 0;

}  // namespace

double run_host_probe() {
  std::vector<std::uint64_t> heap;
  heap.reserve(kHeapItems);
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t acc = 0;
  const std::int64_t start = now_ns();
  for (int round = 0; round < kHeapRounds; ++round) {
    for (int k = 0; k < kHeapItems; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      heap.push_back(x % 100000);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    while (!heap.empty()) {
      acc += heap.front();
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.pop_back();
    }
  }
  {
    // Every assign outgrows the vector, so each is a free plus a malloc.
    std::vector<std::vector<std::int64_t>> vectors(kVectors);
    for (int round = 0; round < kAllocRounds; ++round) {
      for (std::vector<std::int64_t>& v : vectors) {
        v.assign(static_cast<std::size_t>(50 + round), round);
        acc += static_cast<std::uint64_t>(v.back());
      }
    }
  }
  {
    // Node-based tree churn: scattered small nodes, like the admission
    // engines' per-task state.
    std::map<std::uint64_t, std::uint64_t> tree;
    for (int k = 0; k < kMapOps; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      tree[x % kMapKeys] += static_cast<std::uint64_t>(k);
      if (k % 3 == 0) tree.erase(tree.begin());
    }
    acc += tree.size();
  }
  const std::int64_t end = now_ns();
  probe_sink = acc;
  return static_cast<double>(end - start) / 1e9;
}

double host_slowdown(double probe_before_s, double probe_after_s) {
  if (!(probe_before_s > 0.0 && probe_after_s > 0.0)) {
    throw std::invalid_argument("host_slowdown: probe times must be positive");
  }
  return (probe_before_s + probe_after_s) / 2.0 / kProbeReferenceSeconds;
}

}  // namespace perfbench
