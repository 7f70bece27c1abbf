//===- bench/e2e/cip_e2e.cpp - End-to-end benchmark driver ---------------===//
//
// Part of the cross-invocation-parallelism reproduction of Huang et al.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the end-to-end benchmark (bench/e2e/README.md).
/// One process runs one named workload against the library defaults for a
/// fixed wall-clock budget, checks every invocation against a sequential
/// oracle, and prints one JSON document of raw samples on stdout; run.py
/// turns the samples into the metrics BENCHMARK.json names.
///
/// Everything is measured from outside the runtime: the driver times its
/// calls into harness::runDomore / runSpecCross and RegionServer::submit and
/// reads the counts in the stats those calls already return. With
/// --trace-file it also keeps spans around those calls in memory, plus the
/// spans the returned stats imply (marked "derived"), and writes them as a
/// Chrome trace at exit. Tracing alternates between rounds of invocations
/// (every instance, or every traffic kind, is traced in one round and not
/// in the next), so the run measures its own tracing overhead on the same
/// inputs.
///
/// Usage:
///   cip_e2e --workload <name> --seed <n> --seconds <s>
///           [--trace-file <path>] [--wrong-oracle]
///
/// --wrong-oracle corrupts one oracle checksum (run.py --self-test proves
/// that a mismatch fails the run).
///
//===----------------------------------------------------------------------===//

#include "ShadowWorkload.h"

#include "harness/Adaptive.h"
#include "harness/Executor.h"
#include "server/RegionServer.h"
#include "workloads/BigState.h"
#include "workloads/CG.h"
#include "workloads/Jacobi.h"
#include "workloads/Loopdep.h"
#include "workloads/PhaseShift.h"
#include "workloads/Symm.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace cip;

namespace {

/// Seeded input instances per workload; invocations rotate through them.
constexpr unsigned NumInstances = 4;
/// Set-up is repeated at least SetupMinReps times and for at least
/// SetupMinSeconds (at most SetupMaxReps times); run.py reports the median,
/// so a set-up of microseconds is still timed over many repetitions.
constexpr unsigned SetupMinReps = 5;
constexpr unsigned SetupMaxReps = 1000;
constexpr double SetupMinSeconds = 2.0;
/// Untimed warm-up: at least this many invocations and this long, so the
/// pool is spawned, caches are warm and the threads have settled on cores.
constexpr unsigned WarmupInvocations = 2;
constexpr double WarmupSeconds = 1.0;
/// DOMORE: one scheduler plus three workers.
constexpr unsigned DomoreThreads = 4;
/// SPECCROSS: three workers plus the checker thread.
constexpr unsigned SpecWorkers = 3;
/// server-mix load-generator threads (= nproc of the reference machine).
constexpr unsigned Clients = 4;
/// server-mix absolute arrival rates: about 0.5x and 1.5x the capacity the
/// mix measured at the benchmark's first commit (README "server-mix
/// rates"). Never derived from the code under test, so a faster commit
/// faces the same offered load. To recalibrate on another machine, edit
/// them and record the capacity run in the README.
constexpr double ReferenceRps = 72.0;
constexpr double OverloadRps = 216.0;
/// Shares of --seconds over which the two server-mix phases schedule
/// arrivals (300+ requests each); the overload phase then drains its
/// backlog in the remaining time.
constexpr double ReferenceShare = 0.65;
constexpr double OverloadShare = 0.2;

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double msBetween(std::uint64_t Begin, std::uint64_t End) {
  return static_cast<double>(End - Begin) * 1e-6;
}

[[noreturn]] void usageError(const std::string &Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: cip_e2e --workload <name> --seed <n> "
               "--seconds <s> [--trace-file <path>] [--wrong-oracle]\n",
               Msg.c_str());
  std::exit(2);
}

/// Reads a counter by its exported name, so a renamed counter shows up as
/// absent (JSON null) instead of breaking the build.
double counterByName(const telemetry::CounterTotals &T, const char *Name) {
  for (unsigned I = 0; I < telemetry::NumCounters; ++I)
    if (std::strcmp(telemetry::counterName(static_cast<telemetry::Counter>(I)),
                    Name) == 0)
      return static_cast<double>(T.Values[I]);
  return std::numeric_limits<double>::quiet_NaN();
}

/// Uniform doubles in [0, 1) from a splitmix64 stream.
class Stream {
public:
  explicit Stream(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() { return State = e2e::splitmix64(State); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }

private:
  std::uint64_t State;
};

/// The seed of input instance \p K of a run seeded with \p Seed.
std::uint64_t instanceSeed(std::uint64_t Seed, unsigned K) {
  return e2e::splitmix64(Seed * NumInstances + K);
}

/// Sets \p Slot up with \p Build as often as the set-up rule above asks,
/// tearing the previous set-up down untimed, and returns the seconds each
/// set-up took. \p Slot keeps the last one.
template <typename T, typename Fn>
std::vector<double> timeSetup(T &Slot, Fn Build) {
  std::vector<double> Seconds;
  double Total = 0.0;
  while (Seconds.size() < SetupMinReps ||
         (Total < SetupMinSeconds && Seconds.size() < SetupMaxReps)) {
    Slot = T();
    const std::uint64_t T0 = nowNs();
    Slot = Build();
    Seconds.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    Total += Seconds.back();
  }
  return Seconds;
}

//===----------------------------------------------------------------------===//
// Samples, verdicts, spans
//===----------------------------------------------------------------------===//

/// One invocation's measurements, emitted as one JSON object.
struct Sample {
  std::vector<std::pair<const char *, double>> Num;
  /// server-mix: the library's static name of what actually ran.
  const char *Technique = nullptr;
  void add(const char *Key, double V) { Num.emplace_back(Key, V); }
};

/// Correctness tally of every invocation (warm-ups included). server-mix
/// clients record concurrently; the totals are read after they join.
struct Verdict {
  std::mutex Mu; ///< guards the three fields below
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Errors;

  void pass() {
    std::lock_guard<std::mutex> L(Mu);
    ++Attempted;
  }
  void fail(std::string Why) {
    std::lock_guard<std::mutex> L(Mu);
    ++Attempted;
    ++Failed;
    if (Errors.size() < 16)
      Errors.push_back(std::move(Why));
  }
};

/// One traced interval. Parent indexes the same log; -1 marks a root.
struct Span {
  const char *Name;
  std::uint64_t Begin;
  std::uint64_t End;
  std::uint64_t Id;
  int Parent;
  bool Derived;
};

/// Spans of one thread, kept in memory until exit.
struct SpanLog {
  std::vector<Span> Spans;
  int add(const char *Name, std::uint64_t Begin, std::uint64_t End,
          std::uint64_t Id, int Parent, bool Derived = false) {
    Spans.push_back(Span{Name, Begin, End, Id, Parent, Derived});
    return static_cast<int>(Spans.size()) - 1;
  }
};

/// Writes \p Logs (one per thread, in tid order) as Chrome "X" events.
/// Each event's args carry the request id, a run-unique span number, its
/// parent's span number (-1 for a root), and whether it was derived from
/// returned stats rather than timed.
bool writeTrace(const std::string &Path, const std::vector<SpanLog> &Logs,
                std::uint64_t OriginNs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool First = true;
  std::size_t Base = 0;
  for (std::size_t Tid = 0; Tid < Logs.size(); ++Tid) {
    const std::vector<Span> &Spans = Logs[Tid].Spans;
    for (std::size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      const long long Parent =
          S.Parent < 0 ? -1 : static_cast<long long>(Base + S.Parent);
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%llu,\"span\":%zu,\"parent\":%lld,"
                   "\"derived\":%s}}",
                   First ? "" : ",", S.Name, Tid,
                   static_cast<double>(S.Begin - OriginNs) * 1e-3,
                   static_cast<double>(S.End - S.Begin) * 1e-3,
                   static_cast<unsigned long long>(S.Id), Base + I, Parent,
                   S.Derived ? "true" : "false");
      First = false;
    }
    Base += Spans.size();
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

void printNumber(double V) {
  if (std::isfinite(V))
    std::printf("%.17g", V);
  else
    std::printf("null");
}

void printString(const std::string &S) {
  std::putchar('"');
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::printf("\\%c", C);
    else if (static_cast<unsigned char>(C) < 0x20)
      std::printf("\\u%04x", C);
    else
      std::putchar(C);
  }
  std::putchar('"');
}

void printNumbers(const std::vector<double> &Vs) {
  std::putchar('[');
  for (std::size_t I = 0; I < Vs.size(); ++I) {
    if (I)
      std::putchar(',');
    printNumber(Vs[I]);
  }
  std::putchar(']');
}

void printSamples(const std::vector<Sample> &Samples) {
  std::putchar('[');
  for (std::size_t I = 0; I < Samples.size(); ++I) {
    std::printf(I ? ",{" : "{");
    bool First = true;
    if (Samples[I].Technique) {
      std::printf("\"technique\":");
      printString(Samples[I].Technique);
      First = false;
    }
    for (const auto &[Key, V] : Samples[I].Num) {
      std::printf("%s\"%s\":", First ? "" : ",", Key);
      printNumber(V);
      First = false;
    }
    std::putchar('}');
  }
  std::putchar(']');
}

/// What a run measured, before run.py turns it into metrics.
struct RunOutput {
  std::vector<double> SetupSeconds;
  std::vector<double> SeqMs;
  std::vector<Sample> Samples;
  /// Closed loop: the timed phase. server-mix: the overload phase, from its
  /// start to its last completion.
  double ThroughputWindowS = 0.0;
  std::uint64_t ThroughputCompleted = 0;
  /// SPECCROSS checker latency, merged over the timed invocations.
  telemetry::HistogramData CheckLatency;
};

void printRun(const std::string &Workload, std::uint64_t Seed, double Seconds,
              const RunOutput &Out, const Verdict &V,
              const std::string &TracePath) {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  std::printf("{\"workload\":");
  printString(Workload);
  std::printf(",\"seed\":%llu,\"seconds\":", static_cast<unsigned long long>(Seed));
  printNumber(Seconds);
  std::printf(",\"instances\":%u,\"setup_s\":", NumInstances);
  printNumbers(Out.SetupSeconds);
  std::printf(",\"seq_ms\":");
  printNumbers(Out.SeqMs);
  std::printf(",\"throughput_window_s\":");
  printNumber(Out.ThroughputWindowS);
  std::printf(",\"throughput_completed\":%llu",
              static_cast<unsigned long long>(Out.ThroughputCompleted));
  std::printf(",\"check_us_p50\":");
  printNumber(static_cast<double>(Out.CheckLatency.percentileNs(0.50)) * 1e-3);
  std::printf(",\"check_us_p90\":");
  printNumber(static_cast<double>(Out.CheckLatency.percentileNs(0.90)) * 1e-3);
  std::printf(",\"peak_rss_kib\":%ld", RU.ru_maxrss);
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"errors\":[",
              static_cast<unsigned long long>(V.Attempted),
              static_cast<unsigned long long>(V.Failed));
  for (std::size_t I = 0; I < V.Errors.size(); ++I) {
    if (I)
      std::putchar(',');
    printString(V.Errors[I]);
  }
  std::printf("],\"trace_file\":");
  if (TracePath.empty())
    std::printf("null");
  else
    printString(TracePath);
  std::printf(",\"samples\":");
  printSamples(Out.Samples);
  std::printf("}\n");
}

//===----------------------------------------------------------------------===//
// Closed-loop workloads
//===----------------------------------------------------------------------===//

/// Engine statistics of one call; the engine the call ran fills its half.
struct EngineStats {
  domore::DomoreStats Domore;
  speccross::SpecStats Spec;
};

/// A closed-loop workload: seeded instances and the runtime call on one.
struct ClosedLoop {
  bool IsDomore = true;
  std::vector<std::unique_ptr<workloads::Workload>> Instances;
  /// SPECCROSS: each instance's profiled speculative distance (the paper's
  /// profile-then-speculate flow; profiling is part of set-up).
  std::vector<std::uint64_t> Distances;
  /// SPECCROSS checkpoint interval in epochs; 0 keeps the engine default.
  std::uint32_t CheckpointInterval = 0;
  /// sigcheck-speccross is conflict-free: any misspeculation is a bug.
  bool ExpectNoMisspec = false;

  const char *callName() const {
    return IsDomore ? "harness.runDomore" : "harness.runSpecCross";
  }

  harness::ExecResult call(unsigned K, EngineStats &S) {
    workloads::Workload &W = *Instances[K];
    if (IsDomore)
      return harness::runDomore(W, DomoreThreads,
                                domore::PolicyKind::RoundRobin, &S.Domore);
    speccross::SpecConfig Cfg;
    Cfg.NumWorkers = SpecWorkers;
    Cfg.Scheme = W.preferredSignature();
    Cfg.SpecDistance = Distances[K];
    if (CheckpointInterval)
      Cfg.CheckpointIntervalEpochs = CheckpointInterval;
    return harness::runSpecCross(W, Cfg, speccross::SpecMode::Speculation,
                                 &S.Spec);
  }
};

/// Builds the instances of closed-loop workload \p Name; profiles them when
/// it runs under SPECCROSS.
ClosedLoop buildClosedLoop(const std::string &Name, std::uint64_t Seed) {
  ClosedLoop L;
  for (unsigned K = 0; K < NumInstances; ++K) {
    const std::uint64_t S = instanceSeed(Seed, K);
    if (Name == "cg-domore") {
      // Train-scale rows and grain, half the train row count so a
      // 10-second run collects 200+ invocations.
      workloads::CGParams P =
          workloads::CGParams::forScale(workloads::Scale::Train);
      P.NumRows = 1000;
      P.Seed = S;
      L.Instances.push_back(std::make_unique<workloads::CGWorkload>(P));
    } else if (Name == "shadow-domore") {
      e2e::ShadowParams P;
      P.Seed = S;
      L.Instances.push_back(std::make_unique<e2e::ShadowWorkload>(P));
    } else if (Name == "sigcheck-speccross") {
      // Train-scale grain on a 200-row triangle (train has 400). fdtd, the
      // first choice, alternates between two throughput regimes under its
      // profiled throttle (README "Why symm").
      workloads::SymmParams P =
          workloads::SymmParams::forScale(workloads::Scale::Train);
      P.N = 200;
      P.Seed = S;
      L.Instances.push_back(std::make_unique<workloads::SymmWorkload>(P));
    } else {
      // rollback-speccross. BigState has no seed: its write pattern follows
      // from its shape, so --seed changes nothing for this workload.
      workloads::BigStateParams P =
          workloads::BigStateParams::forScale(workloads::Scale::Train);
      P.Epochs = 40;
      P.StripeLen = 32768;
      L.Instances.push_back(std::make_unique<workloads::BigStateWorkload>(P));
    }
  }
  L.IsDomore = Name == "cg-domore" || Name == "shadow-domore";
  L.ExpectNoMisspec = Name == "sigcheck-speccross";
  if (Name == "rollback-speccross")
    L.CheckpointInterval = 4;
  if (!L.IsDomore)
    for (auto &W : L.Instances)
      L.Distances.push_back(harness::profiledSpecDistance(*W, SpecWorkers));
  return L;
}

void describeDomore(const domore::DomoreStats &St,
                    const harness::ExecResult &R, Sample &S) {
  S.add("iterations", static_cast<double>(St.Iterations));
  S.add("sync_conditions", static_cast<double>(St.SyncConditions));
  S.add("sched_busy_s", St.SchedulerBusySeconds);
  S.add("region_s", St.TotalSeconds);
  S.add("worker_wait_ns", counterByName(R.Telemetry, "worker_wait_ns"));
  S.add("queue_full_spins", counterByName(R.Telemetry, "queue_full_spins"));
  S.add("queue_empty_spins", counterByName(R.Telemetry, "queue_empty_spins"));
  // DispatchBatch values are iteration counts, not nanoseconds.
  S.add("batch_sum", static_cast<double>(St.DispatchBatch.SumNs));
  S.add("batch_count", static_cast<double>(St.DispatchBatch.count()));
}

void describeSpec(const speccross::SpecStats &St,
                  const harness::ExecResult &R, Sample &S) {
  std::uint64_t FalseAborts = 0;
  for (const telemetry::AbortRecord &A : St.Aborts)
    FalseAborts += A.ExactConfirmed ? 0 : 1;
  S.add("tasks", static_cast<double>(St.Tasks));
  S.add("epochs", static_cast<double>(St.Epochs));
  S.add("comparisons", static_cast<double>(St.SignatureComparisons));
  S.add("misspeculations", static_cast<double>(St.Misspeculations));
  S.add("aborts_recorded", static_cast<double>(St.Aborts.size()));
  S.add("false_aborts", static_cast<double>(FalseAborts));
  S.add("reexecuted_epochs", static_cast<double>(St.ReexecutedEpochs));
  S.add("checkpoints", static_cast<double>(St.CheckpointsTaken));
  S.add("checkpoint_s", St.CheckpointSeconds);
  S.add("recovery_s", St.RecoverySeconds);
  S.add("region_s", St.TotalSeconds);
  // The checker books its busy time under the scheduler counter: it is
  // SPECCROSS's service thread.
  S.add("checker_busy_ns", counterByName(R.Telemetry, "scheduler_busy_ns"));
  S.add("worker_wait_ns", counterByName(R.Telemetry, "worker_wait_ns"));
  S.add("dirty_pages", counterByName(R.Telemetry, "dirty_pages"));
  S.add("ckpt_bytes_copied", counterByName(R.Telemetry, "ckpt_bytes_copied"));
  S.add("checkpoint_bytes", counterByName(R.Telemetry, "checkpoint_bytes"));
}

RunOutput runClosedLoop(const std::string &Name, std::uint64_t Seed,
                        double Seconds, bool WrongOracle, bool Tracing,
                        SpanLog &Log, Verdict &V) {
  RunOutput Out;
  ClosedLoop L;
  Out.SetupSeconds =
      timeSetup(L, [&] { return buildClosedLoop(Name, Seed); });

  std::vector<std::uint64_t> Oracle;
  for (auto &W : L.Instances) {
    W->reset();
    const harness::ExecResult R = harness::runSequential(*W);
    Oracle.push_back(R.Checksum);
    Out.SeqMs.push_back(R.Seconds * 1e3);
  }
  if (WrongOracle)
    Oracle[0] ^= 1;

  // DOMORE's sync conditions are a deterministic function of the input:
  // every invocation of an instance must produce the same count.
  constexpr std::uint64_t Unseen = ~std::uint64_t{0};
  std::vector<std::uint64_t> SyncSeen(NumInstances, Unseen);

  std::uint64_t NextId = 0;
  auto Invoke = [&](bool Timed) {
    const std::uint64_t Id = NextId++;
    const unsigned K = static_cast<unsigned>(Id % NumInstances);
    // Alternate whole rounds, so every instance is traced half the time.
    const bool Traced = Tracing && (Id / NumInstances) % 2 == 0;
    workloads::Workload &W = *L.Instances[K];
    EngineStats St;

    const std::uint64_t T0 = nowNs();
    W.reset();
    const std::uint64_t T1 = nowNs();
    const harness::ExecResult R = L.call(K, St);
    const std::uint64_t T2 = nowNs();
    std::string Why;
    if (R.Checksum != Oracle[K]) {
      Why = "checksum differs from the sequential oracle";
    } else if (L.IsDomore) {
      if (SyncSeen[K] == Unseen)
        SyncSeen[K] = St.Domore.SyncConditions;
      else if (SyncSeen[K] != St.Domore.SyncConditions)
        Why = "sync-condition count changed between invocations";
    } else if (L.ExpectNoMisspec && St.Spec.Misspeculations != 0) {
      Why = "misspeculated on a conflict-free input";
    }
    const std::uint64_t T3 = nowNs();

    if (Why.empty())
      V.pass();
    else
      V.fail(Name + " invocation " + std::to_string(Id) + " (instance " +
             std::to_string(K) + "): " + Why);
    if (!Timed)
      return;

    if (Traced) {
      const std::uint64_t ExecNs =
          std::min<std::uint64_t>(static_cast<std::uint64_t>(R.Seconds * 1e9),
                                  T2 - T1);
      const int Root = Log.add("invocation", T0, T3, Id, -1);
      Log.add("bench.reset", T0, T1, Id, Root);
      const int Call = Log.add(L.callName(), T1, T2, Id, Root);
      Log.add("engine.region", T2 - ExecNs, T2, Id, Call, /*Derived=*/true);
      Log.add("bench.verify", T2, T3, Id, Root);
    }
    const std::uint64_t T4 = nowNs();

    Sample S;
    S.add("k", K);
    S.add("traced", Traced ? 1 : 0);
    S.add("reset_ms", msBetween(T0, T1));
    S.add("lat_ms", msBetween(T1, T2));
    S.add("verify_ms", msBetween(T2, T3));
    // What recording the spans cost (next to nothing when untraced).
    S.add("trace_ms", msBetween(T3, T4));
    S.add("exec_ms", R.Seconds * 1e3);
    if (L.IsDomore) {
      describeDomore(St.Domore, R, S);
    } else {
      describeSpec(St.Spec, R, S);
      Out.CheckLatency += St.Spec.CheckLatency;
    }
    Out.Samples.push_back(std::move(S));
  };

  const std::uint64_t WarmStart = nowNs();
  for (unsigned I = 0; I < WarmupInvocations ||
                       static_cast<double>(nowNs() - WarmStart) * 1e-9 <
                           WarmupSeconds;
       ++I)
    Invoke(false);

  const std::uint64_t Start = nowNs();
  std::uint64_t End = Start;
  do {
    Invoke(true);
    End = nowNs();
  } while (static_cast<double>(End - Start) * 1e-9 < Seconds);
  Out.ThroughputWindowS = static_cast<double>(End - Start) * 1e-9;
  Out.ThroughputCompleted = Out.Samples.size();
  return Out;
}

//===----------------------------------------------------------------------===//
// server-mix: open-loop traffic through one RegionServer
//===----------------------------------------------------------------------===//

/// One traffic class: a region kind and the technique it asks for.
struct MixKind {
  const char *Name;
  policy::Technique Tech;
  bool Adaptive; ///< route through the adaptive policy engine instead
};

constexpr MixKind MixKinds[] = {
    {"cg", policy::Technique::Domore, false},
    {"jacobi", policy::Technique::SpecCross, false},
    {"loopdep", policy::Technique::Barrier, false},
    {"phaseshift", policy::Technique::Barrier, true},
};
constexpr unsigned NumMixKinds = sizeof(MixKinds) / sizeof(MixKinds[0]);

/// Each kind is sized to 10-30 ms of sequential work.
std::unique_ptr<workloads::Workload> makeMixInstance(unsigned Kind,
                                                     std::uint64_t Seed) {
  const workloads::Scale Train = workloads::Scale::Train;
  switch (Kind) {
  case 0: {
    workloads::CGParams P = workloads::CGParams::forScale(Train);
    P.NumRows = 200;
    P.Seed = Seed;
    return std::make_unique<workloads::CGWorkload>(P);
  }
  case 1: {
    workloads::JacobiParams P = workloads::JacobiParams::forScale(Train);
    P.Sweeps = 10;
    P.Seed = Seed;
    return std::make_unique<workloads::JacobiWorkload>(P);
  }
  case 2: {
    // Loopdep has no seed.
    workloads::LoopdepParams P = workloads::LoopdepParams::forScale(Train);
    P.Epochs = 60;
    return std::make_unique<workloads::LoopdepWorkload>(P);
  }
  default: {
    // PhaseShift has no seed.
    workloads::PhaseShiftParams P =
        workloads::PhaseShiftParams::forScale(Train);
    P.Epochs = 32;
    P.PhaseLen = 8;
    return std::make_unique<workloads::PhaseShiftWorkload>(P);
  }
  }
}

/// Everything server-mix builds before its first timed request.
struct MixSetup {
  /// Every client owns its instances: a degraded request runs in the
  /// submitting thread, and all of them mutate their workload in place.
  std::vector<std::unique_ptr<workloads::Workload>> Instances;
  std::unique_ptr<server::RegionServer> Server;

  static std::size_t index(unsigned Client, unsigned Kind, unsigned K) {
    return (std::size_t(Client) * NumMixKinds + Kind) * NumInstances + K;
  }
  workloads::Workload &at(unsigned Client, unsigned Kind, unsigned K) {
    return *Instances[index(Client, Kind, K)];
  }
};

MixSetup buildMix(std::uint64_t Seed) {
  MixSetup M;
  for (unsigned C = 0; C < Clients; ++C)
    for (unsigned Kind = 0; Kind < NumMixKinds; ++Kind)
      for (unsigned K = 0; K < NumInstances; ++K)
        M.Instances.push_back(
            makeMixInstance(Kind, instanceSeed(Seed + Kind, K)));
  // The library defaults: budget = hardware concurrency, queue 64, block
  // admission, degrade allowed.
  M.Server = std::make_unique<server::RegionServer>(server::configFromEnv());
  return M;
}

/// One scheduled request.
struct Arrival {
  double AtS;
  unsigned Kind;
  unsigned K;
};

/// Exactly round(\p Rps * \p SpanS) seeded arrivals spread over
/// [0, \p SpanS): exponential gaps rescaled to the span (a Poisson process
/// conditioned on its count), with every block of NumMixKinds consecutive
/// requests holding each kind once in a seeded order. Fixing the count and
/// the mix keeps the seed from changing the offered load, so runs differ
/// only in arrival pattern and inputs.
std::vector<Arrival> makeArrivals(Stream &Rng, double Rps, double SpanS) {
  const auto N = static_cast<std::size_t>(std::lround(Rps * SpanS));
  std::vector<Arrival> Out(N);
  double T = 0.0;
  for (std::size_t I = 0; I < N; ++I) {
    T += -std::log(1.0 - Rng.uniform());
    Out[I].AtS = T;
    Out[I].Kind = static_cast<unsigned>(I % NumMixKinds);
    Out[I].K = Rng.below(NumInstances);
  }
  const double Scale = N ? SpanS / (T - std::log(1.0 - Rng.uniform())) : 0.0;
  for (std::size_t I = 0; I < N; ++I) {
    Out[I].AtS *= Scale;
    if (I % NumMixKinds == 0) {
      // Shuffle the block's kinds (Fisher-Yates).
      const std::size_t Len = std::min<std::size_t>(NumMixKinds, N - I);
      for (std::size_t J = Len - 1; J > 0; --J)
        std::swap(Out[I + J].Kind, Out[I + Rng.below(J + 1)].Kind);
    }
  }
  return Out;
}

/// Shared state of one server-mix run.
struct MixRun {
  MixSetup &M;
  const std::vector<std::uint64_t> &Oracle;
  const policy::PolicyConfig &Policy;
  bool Tracing;
  std::vector<SpanLog> &Logs;
  Verdict &V;
  std::vector<std::vector<Sample>> ClientSamples;
  std::uint64_t NextId = 0;
};

struct PhaseResult {
  std::uint64_t StartNs = 0;
  std::uint64_t LastEndNs = 0;
  std::uint64_t Completed = 0;
};

/// Issues \p Arrivals from the Clients threads: each free client takes the
/// next request in schedule order, prepares its instance, sleeps until the
/// request is due and submits it. Latency runs from the due time, so a
/// generator that falls behind charges its lag to the request.
PhaseResult runPhase(MixRun &Run, unsigned Phase,
                     const std::vector<Arrival> &Arrivals, bool Record) {
  PhaseResult Res;
  std::atomic<std::size_t> Next{0};
  std::vector<std::uint64_t> LastEnd(Clients, 0), Completed(Clients, 0);
  const std::uint64_t IdBase = Run.NextId;
  Run.NextId += Arrivals.size();
  Res.StartNs = nowNs();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      for (;;) {
        const std::size_t I = Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= Arrivals.size())
          return;
        const Arrival &A = Arrivals[I];
        const MixKind &Kind = MixKinds[A.Kind];
        const std::uint64_t Id = IdBase + I;
        // Only the reference phase, where latency is measured, is traced, in
        // alternate blocks of NumMixKinds requests: each block holds every
        // kind once (makeArrivals), so both halves see the same mix.
        const bool Traced = Record && Phase == 0 && Run.Tracing &&
                            (I / NumMixKinds) % 2 == 0;
        workloads::Workload &W = Run.M.at(C, A.Kind, A.K);

        const std::uint64_t R0 = nowNs();
        W.reset();
        const std::uint64_t R1 = nowNs();
        const std::uint64_t Due =
            Res.StartNs + static_cast<std::uint64_t>(A.AtS * 1e9);
        if (R1 < Due)
          std::this_thread::sleep_for(std::chrono::nanoseconds(Due - R1));

        server::RegionRequest Req;
        Req.W = &W;
        Req.Tech = Kind.Tech;
        if (Kind.Adaptive)
          Req.Policy = &Run.Policy;
        const std::uint64_t S0 = nowNs();
        const server::RequestResult Out = Run.M.Server->submit(Req);
        const std::uint64_t S1 = nowNs();
        const bool Done = Out.Status == server::RequestStatus::Completed;
        const bool Ok =
            Done && Out.Checksum == Run.Oracle[A.Kind * NumInstances + A.K];
        const std::uint64_t S2 = nowNs();

        if (Ok)
          Run.V.pass();
        else
          Run.V.fail(std::string("server-mix request ") + std::to_string(Id) +
                     " (" + Kind.Name + "): " +
                     (Done ? "checksum differs from the sequential oracle"
                           : "rejected"));
        LastEnd[C] = S1;
        Completed[C] += Done;
        if (!Record)
          continue;

        const std::uint64_t Submit = S1 - S0;
        const std::uint64_t QueueNs = std::min(Out.QueueWaitNs, Submit);
        const std::uint64_t ExecNs = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(Out.Seconds * 1e9), Submit - QueueNs);
        if (Traced) {
          SpanLog &Log = Run.Logs[C];
          Log.add("bench.reset", R0, R1, Id, -1);
          const std::uint64_t From = std::min(Due, S0);
          const int Root = Log.add("invocation", From, S2, Id, -1);
          Log.add("bench.lag", From, S0, Id, Root);
          const int Call = Log.add("server.submit", S0, S1, Id, Root);
          Log.add("server.queue", S0, S0 + QueueNs, Id, Call, true);
          Log.add("engine.region", S1 - ExecNs, S1, Id, Call, true);
          Log.add("bench.verify", S1, S2, Id, Root);
        }
        const std::uint64_t S3 = nowNs();

        Sample S;
        S.Technique = Out.Technique;
        S.add("phase", Phase);
        S.add("kind", A.Kind);
        S.add("k", A.K);
        S.add("traced", Traced ? 1 : 0);
        S.add("lat_ms", msBetween(Due, S1));
        S.add("lag_ms", S0 > Due ? msBetween(Due, S0) : 0.0);
        S.add("queue_ms", static_cast<double>(QueueNs) * 1e-6);
        S.add("exec_ms", Out.Seconds * 1e3);
        S.add("admit_ms", static_cast<double>(Submit - QueueNs - ExecNs) * 1e-6);
        S.add("granted", Out.Granted);
        S.add("degraded", Out.Degraded ? 1 : 0);
        S.add("reset_ms", msBetween(R0, R1));
        S.add("verify_ms", msBetween(S1, S2));
        S.add("trace_ms", msBetween(S2, S3));
        Run.ClientSamples[C].push_back(std::move(S));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned C = 0; C < Clients; ++C) {
    Res.LastEndNs = std::max(Res.LastEndNs, LastEnd[C]);
    Res.Completed += Completed[C];
  }
  return Res;
}

RunOutput runServerMix(std::uint64_t Seed, double Seconds, bool WrongOracle,
                       bool Tracing, std::vector<SpanLog> &Logs, Verdict &V) {
  RunOutput Out;
  MixSetup M;
  Out.SetupSeconds = timeSetup(M, [&] { return buildMix(Seed); });

  std::vector<std::uint64_t> Oracle;
  for (unsigned Kind = 0; Kind < NumMixKinds; ++Kind)
    for (unsigned K = 0; K < NumInstances; ++K) {
      workloads::Workload &W = M.at(0, Kind, K);
      W.reset();
      const harness::ExecResult R = harness::runSequential(W);
      Oracle.push_back(R.Checksum);
      Out.SeqMs.push_back(R.Seconds * 1e3);
    }
  if (WrongOracle)
    Oracle[0] ^= 1;

  policy::PolicyConfig Policy;
  Policy.Kind = policy::PolicyKind::Threshold;
  MixRun Run{M, Oracle, Policy, Tracing, Logs, V, {}, 0};
  Run.ClientSamples.resize(Clients);

  // Warm-up: every client submits each of its instances back to back.
  std::vector<Arrival> Warm;
  for (unsigned Kind = 0; Kind < NumMixKinds; ++Kind)
    for (unsigned K = 0; K < NumInstances; ++K)
      for (unsigned C = 0; C < Clients; ++C)
        Warm.push_back(Arrival{0.0, Kind, K});
  const std::uint64_t WarmStart = nowNs();
  do
    runPhase(Run, 0, Warm, /*Record=*/false);
  while (static_cast<double>(nowNs() - WarmStart) * 1e-9 < WarmupSeconds);

  Stream Rng(e2e::splitmix64(Seed ^ 0x5e7e7a11c0ffeeULL));
  const std::vector<Arrival> Reference =
      makeArrivals(Rng, ReferenceRps, ReferenceShare * Seconds);
  const std::vector<Arrival> Overload =
      makeArrivals(Rng, OverloadRps, OverloadShare * Seconds);
  runPhase(Run, 0, Reference, /*Record=*/true);
  const PhaseResult Over = runPhase(Run, 1, Overload, /*Record=*/true);
  Out.ThroughputWindowS =
      static_cast<double>(Over.LastEndNs - Over.StartNs) * 1e-9;
  Out.ThroughputCompleted = Over.Completed;
  for (auto &Samples : Run.ClientSamples)
    for (Sample &S : Samples)
      Out.Samples.push_back(std::move(S));
  return Out;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

bool parseUnsigned(const char *S, std::uint64_t &Out) {
  if (!S || !*S || *S == '-')
    return false;
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || *End)
    return false;
  Out = V;
  return true;
}

bool parsePositive(const char *S, double &Out) {
  if (!S || !*S)
    return false;
  char *End = nullptr;
  const double V = std::strtod(S, &End);
  if (*End || !std::isfinite(V) || V <= 0.0)
    return false;
  Out = V;
  return true;
}

const char *const WorkloadNames[] = {"cg-domore", "shadow-domore",
                                     "sigcheck-speccross",
                                     "rollback-speccross", "server-mix"};

} // namespace

int main(int Argc, char **Argv) {
  const std::uint64_t OriginNs = nowNs();
  std::string Workload, TracePath;
  std::uint64_t Seed = 0;
  double Seconds = 0.0;
  bool HaveSeed = false, WrongOracle = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    const char *Val = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (Arg == "--wrong-oracle") {
      WrongOracle = true;
      continue;
    }
    if (!Val)
      usageError(Arg + " needs a value");
    ++I;
    if (Arg == "--workload") {
      Workload = Val;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Val, Seed))
        usageError("--seed expects a non-negative integer");
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      if (!parsePositive(Val, Seconds) || Seconds > 3600.0)
        usageError("--seconds expects a positive number of seconds <= 3600");
    } else if (Arg == "--trace-file") {
      TracePath = Val;
    } else {
      usageError("unknown argument '" + Arg + "'");
    }
  }
  if (std::find(std::begin(WorkloadNames), std::end(WorkloadNames),
                Workload) == std::end(WorkloadNames))
    usageError("--workload must be one of cg-domore, shadow-domore, "
               "sigcheck-speccross, rollback-speccross, server-mix");
  if (!HaveSeed || Seconds <= 0.0)
    usageError("--seed and --seconds are required");

  const bool Tracing = !TracePath.empty();
  Verdict V;
  std::vector<SpanLog> Logs(Workload == "server-mix" ? Clients : 1);
  const RunOutput Out =
      Workload == "server-mix"
          ? runServerMix(Seed, Seconds, WrongOracle, Tracing, Logs, V)
          : runClosedLoop(Workload, Seed, Seconds, WrongOracle, Tracing,
                          Logs[0], V);
  if (Tracing && !writeTrace(TracePath, Logs, OriginNs)) {
    std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                 TracePath.c_str());
    return 2;
  }
  printRun(Workload, Seed, Seconds, Out, V, TracePath);
  return V.Failed ? 1 : 0;
}
