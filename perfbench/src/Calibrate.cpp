//===- Calibrate.cpp - A fixed reference kernel ---------------------------===//

#include "Calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

using namespace perfbench;

namespace {

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

struct Node {
  unsigned Op = 0;
  int64_t Value = 0;
  Node *L = nullptr, *R = nullptr;
};

int64_t eval(const Node *N) {
  switch (N->Op) {
  case 0:
    return N->Value;
  case 1:
    return eval(N->L) + eval(N->R);
  case 2:
    return eval(N->L) - eval(N->R);
  case 3:
    return (eval(N->L) * 31) ^ eval(N->R);
  default: {
    int64_t A = eval(N->L), B = eval(N->R);
    return A < B ? A : N->Value;
  }
  }
}

volatile int64_t Sink;

} // namespace

double perfbench::referenceKernelMs() {
  auto T0 = std::chrono::steady_clock::now();
  uint64_t State = 20240624;
  int64_t Acc = 0;

  // An expression tree in allocation order that differs from walk order.
  constexpr size_t TreeNodes = 2047;
  std::vector<std::unique_ptr<Node>> Pool;
  for (size_t I = 0; I != TreeNodes; ++I)
    Pool.push_back(std::make_unique<Node>());
  std::vector<Node *> Order;
  for (auto &N : Pool)
    Order.push_back(N.get());
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[splitmix(State) % I]);
  for (size_t I = 0; I != TreeNodes; ++I) {
    Node *N = Order[I];
    N->Value = int64_t(splitmix(State) % 1000);
    if (2 * I + 2 < TreeNodes) {
      N->Op = 1 + unsigned(splitmix(State) % 4);
      N->L = Order[2 * I + 1];
      N->R = Order[2 * I + 2];
    }
  }
  for (int Rep = 0; Rep != 24; ++Rep)
    Acc += eval(Order[0]);

  // Hash-map traffic over keys that miss as often as they hit.
  std::unordered_map<uint64_t, uint32_t> Map;
  for (uint32_t I = 0; I != 6000; ++I)
    Map[splitmix(State) % 16384] += I;
  for (uint32_t I = 0; I != 24000; ++I) {
    auto It = Map.find(splitmix(State) % 16384);
    Acc += It == Map.end() ? 1 : It->second;
  }

  std::vector<uint32_t> Keys(12000);
  for (uint32_t &K : Keys)
    K = uint32_t(splitmix(State));
  std::sort(Keys.begin(), Keys.end());
  Acc += Keys[Keys.size() / 2];

  Sink = Acc;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}
