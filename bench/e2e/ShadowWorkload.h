//===- bench/e2e/ShadowWorkload.h - Scheduler-loading DOMORE input -*- C++ -*-//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark-owned input of the `shadow-domore` workload. No Table 5.1
/// input keeps the DOMORE scheduler busy (Table 5.2: all at or below 2%), so
/// this one is shaped to load it: every iteration touches a few
/// pseudo-random cells of a dense address space several times the per-core
/// L2, which makes each computeAddr + shadow probe a likely cache miss,
/// while the task body is a short burnFlops chain, so the workers still
/// finish ahead of sequential execution.
///
/// Within one epoch the cells come from a bijection of the address space
/// (distinct per task, the DOALL contract); the bijection changes per epoch
/// and per seed, so iterations of different epochs collide pseudo-randomly
/// and the scheduler emits real sync conditions. Each write is a
/// non-commutative read-modify-write, so a runtime that reorders two
/// conflicting iterations changes the checksum.
///
//===----------------------------------------------------------------------===//

#ifndef CIP_BENCH_E2E_SHADOWWORKLOAD_H
#define CIP_BENCH_E2E_SHADOWWORKLOAD_H

#include "workloads/Workload.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cip {
namespace e2e {

inline std::uint64_t splitmix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Defaults are the shadow-domore shape: on the reference machine it keeps
/// the scheduler about half busy while DOMORE at 4 threads still runs about
/// twice as fast as sequential execution (README "shadow-domore").
struct ShadowParams {
  std::uint32_t Epochs = 6;
  std::uint32_t Tasks = 9000;
  /// log2 of the dense address space (cells of 8 bytes): 8 MiB of data and
  /// a 16 MiB dense shadow, four and eight times the per-core L2.
  unsigned SpaceBits = 20;
  unsigned AddrsPerTask = 4;
  unsigned WorkFlops = 150;
  std::uint64_t Seed = 1;
};

class ShadowWorkload final : public workloads::Workload {
public:
  explicit ShadowWorkload(const ShadowParams &P)
      : Params(P), Data(std::size_t(1) << P.SpaceBits) {}

  const char *name() const override { return "shadow"; }
  void reset() override { std::fill(Data.begin(), Data.end(), 0); }
  std::uint32_t numEpochs() const override { return Params.Epochs; }
  std::size_t numTasks(std::uint32_t) const override { return Params.Tasks; }

  void runTask(std::uint32_t Epoch, std::size_t Task) override {
    const double Grain = workloads::burnFlops(
        static_cast<double>(Task & 1023) / 1024.0, Params.WorkFlops);
    const auto Value = static_cast<std::uint64_t>(Grain * 1e9) | 1;
    for (unsigned I = 0; I < Params.AddrsPerTask; ++I) {
      std::uint64_t &Cell = Data[addrOf(Epoch, Task, I)];
      Cell = Cell * 0x100000001b3ULL + Value + I;
    }
  }

  void taskAddresses(std::uint32_t Epoch, std::size_t Task,
                     std::vector<std::uint64_t> &Addrs) const override {
    for (unsigned I = 0; I < Params.AddrsPerTask; ++I)
      Addrs.push_back(addrOf(Epoch, Task, I));
  }

  std::uint64_t addressSpaceSize() const override { return Data.size(); }
  void registerState(speccross::CheckpointRegistry &Reg) override {
    Reg.registerBuffer(Data);
  }

  /// Word-wise mix: hashBytes over the whole space would cost as much as
  /// the region itself.
  std::uint64_t checksum() const override {
    std::uint64_t H = 0xcbf29ce484222325ULL;
    for (std::uint64_t V : Data)
      H = (H ^ V) * 0x100000001b3ULL;
    return H;
  }

  bool speccrossApplicable() const override { return false; }

private:
  /// Per-(seed, epoch) bijection of [0, 2^SpaceBits): odd multiply, then
  /// xor mask. Tasks * AddrsPerTask must not exceed the space so the cells
  /// of one epoch stay distinct.
  std::uint64_t addrOf(std::uint32_t Epoch, std::size_t Task,
                       unsigned I) const {
    const std::uint64_t Key = splitmix64(Params.Seed) ^ Epoch;
    const std::uint64_t Odd = splitmix64(Key) | 1;
    const std::uint64_t Mask = splitmix64(Key + 0x51ed2701ULL);
    const std::uint64_t X = Task * Params.AddrsPerTask + I;
    return ((X * Odd) ^ Mask) & (Data.size() - 1);
  }

  ShadowParams Params;
  std::vector<std::uint64_t> Data;
};

} // namespace e2e
} // namespace cip

#endif // CIP_BENCH_E2E_SHADOWWORKLOAD_H
