//===- main.cpp - The repo benchmark --------------------------------------===//
//
// Usage:
//   jsai_perfbench --workload corpus|loops|objects [--seed N] [--seconds S]
//                  [--trace 0|1] [--scale full|tiny] [--expected-dir DIR]
//
// Untraced (--trace 0): generates the workload from the seed and sets it
// up three times (trees on disk, a fresh in-process `jsai serve` daemon
// with an empty artifact cache, and an untimed warm-up of every stream).
// It then times five streams against the product defaults, interleaved in
// rounds, each round on a fresh daemon with an empty cache:
//
//   first            each project's first analyze on the daemon
//   edit             analyze after one literal of a main module changes
//   replay           an unchanged re-request (served from the replay map)
//   batch jobs=1     CorpusDriver passes over every project, cache off
//   batch jobs=nproc the same passes on every core
//
// Timings are reported at reference speed: scaled by how fast a fixed
// reference kernel (Calibrate.h) ran between the streams.
//
// Traced (--trace 1): times calls into each layer's public API from
// outside (Trace.h) and prints the per-layer metrics.
//
// Every output is checked; the last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}. See README.md.
//
//===----------------------------------------------------------------------===//

#include "Calibrate.h"
#include "Trace.h"
#include "Workloads.h"

#include "cache/ModularArtifacts.h"
#include "callgraph/Metrics.h"
#include "driver/Telemetry.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sched.h>
#include <linux/fs.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace jsai;
using namespace jsai::serve;
using namespace perfbench;

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, i.e. at process start.
const Clock::time_point ProcessStart = Clock::now();

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double msSince(Clock::time_point T0) { return secondsSince(T0) * 1e3; }

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  Scale Size = Scale::Full;
  std::string ExpectedDir = "perfbench/expected";
};

/// Where a run keeps its trees, caches and socket (relative to the
/// checkout root, which keeps the socket path short), and where traces go.
const char RunDir[] = ".bench_run";
const char OutDir[] = ".bench_out";

bool parseArgs(int Argc, char **Argv, Options &O, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      Err = "missing value for " + Flag;
      return false;
    }
    std::string V = Argv[++I];
    char *End = nullptr;
    bool Good = true;
    if (Flag == "--workload") {
      O.Workload = V;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      Good = !V.empty() && *End == '\0';
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      Good = *End == '\0' && O.Seconds > 0 && O.Seconds <= 3600;
    } else if (Flag == "--trace") {
      Good = V == "0" || V == "1";
      O.Trace = V == "1";
    } else if (Flag == "--scale") {
      Good = V == "full" || V == "tiny";
      O.Size = V == "tiny" ? Scale::Tiny : Scale::Full;
    } else if (Flag == "--expected-dir") {
      O.ExpectedDir = V;
    } else {
      Err = "unknown flag " + Flag;
      return false;
    }
    if (!Good) {
      Err = "bad value '" + V + "' for " + Flag;
      return false;
    }
  }
  if (!isWorkloadName(O.Workload)) {
    Err = "--workload must be one of corpus, loops, objects";
    return false;
  }
  return true;
}

/// Environment overrides that CI legs set. The benchmark measures the
/// product defaults only, so it refuses to run under any of them.
const char *const OverrideVars[] = {"JSAI_INTERP", "JSAI_VM_OPT",
                                    "JSAI_SOLVER_SET", "JSAI_SOLVER_JOBS",
                                    "JSAI_EXPLAIN"};

size_t hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The highest percentile of \p V that has at least ten samples above it
/// (the maximum when there are fewer than eleven samples).
struct Tail {
  double Value = 0;
  double Percentile = 100;
};

Tail tailOf(std::vector<double> V) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N <= 10) {
    T.Value = V.back();
    return T;
  }
  T.Value = V[N - 11];
  T.Percentile = 100.0 * double(N - 10) / double(N);
  return T;
}

double ratio(double Num, double Den) { return Den == 0 ? 0 : Num / Den; }

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  /// Human-readable sample description ("7 passes", "141 requests").
  std::string Samples;
};

/// Counts checked outputs; a failed check is a failed operation.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void expect(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    if (++Failed <= 20)
      std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  }
};

void printResult(const Checks &C, const std::vector<Metric> &Ms) {
  std::printf("%-28s %16s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric &M : Ms)
    std::printf("%-28s %16s %-6s %s\n", M.Name.c_str(),
                number(M.Value).c_str(), M.Unit.c_str(), M.Samples.c_str());
  std::printf("checks: %llu attempted, %llu failed\n",
              (unsigned long long)C.Attempted, (unsigned long long)C.Failed);
  std::string J = "{\"correct\": " +
                  std::string(C.Failed == 0 ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(C.Attempted) +
                  ", \"failed\": " + std::to_string(C.Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I)
    J += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
         number(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Output checks
//===----------------------------------------------------------------------===//

/// The extended call graph must contain every baseline edge: the hint
/// rules only add constraints to a monotone analysis.
bool containsBaseline(const AnalysisResult &Extended,
                      const AnalysisResult &Baseline) {
  RecallPrecision RP = compareCallGraphs(Extended.CG, Baseline.CG);
  return RP.MatchedEdges == RP.DynamicEdges;
}

void checkBatch(const RunSummary &S, const RunAggregates &Ref, Checks &C) {
  for (const JobResult &J : S.Jobs) {
    C.expect(J.Report.Outcome == ProjectOutcome::Ok,
             J.Report.Name + ": outcome " +
                 projectOutcomeName(J.Report.Outcome) + " " + J.Error);
    C.expect(containsBaseline(J.Report.Extended, J.Report.Baseline),
             J.Report.Name + ": extended call graph misses a baseline edge");
  }
  C.expect(S.Totals == Ref, "run aggregates differ between batch passes");
}

/// The result facts of a run. The solver's work counter is compared
/// between passes but left out here: it counts solver work, not results.
std::string aggregatesText(const RunAggregates &A) {
  std::ostringstream Out;
  Out << "projects " << A.Projects << "\nok " << A.Ok << "\ndegraded "
      << A.Degraded << "\nerrors " << A.Errors << "\ncancelled "
      << A.Cancelled << "\nbaseline_call_edges " << A.BaselineCallEdges
      << "\nextended_call_edges " << A.ExtendedCallEdges
      << "\nbaseline_reachable " << A.BaselineReachable
      << "\nextended_reachable " << A.ExtendedReachable << "\nhints "
      << A.Hints << "\n";
  return Out.str();
}

/// On the default seed at full size, the aggregates must equal the
/// expected file committed with the benchmark.
void checkExpected(const Options &O, const RunAggregates &A, Checks &C) {
  if (O.Seed != DefaultSeed || O.Size != Scale::Full)
    return;
  std::string Path = O.ExpectedDir + "/" + O.Workload + "-" +
                     std::to_string(DefaultSeed) + ".txt";
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Want;
  Want << In.rdbuf();
  std::string Got = aggregatesText(A);
  if (Want.str() != Got)
    std::fprintf(stderr, "perfbench: aggregates on the default seed:\n%s",
                 Got.c_str());
  C.expect(In && Want.str() == Got, "aggregates differ from " + Path);
}

//===----------------------------------------------------------------------===//
// The in-process daemon and its client
//===----------------------------------------------------------------------===//

ServeOptions serveOptions(const std::string &Socket,
                          const std::string &CacheDir) {
  ServeOptions SO;
  SO.SocketPath = Socket;
  SO.Cache.Dir = CacheDir;
  return SO;
}

/// A `jsai serve` daemon on its own thread, plus one connected client.
class Daemon {
public:
  Daemon(const std::string &Socket, const std::string &CacheDir)
      : S(serveOptions(Socket, CacheDir)) {
    std::string Err;
    if (!S.start(Err))
      throw std::runtime_error("daemon start failed: " + Err);
    Loop = std::thread([this] { S.run(); });
  }
  ~Daemon() {
    // The daemon serves one connection at a time: closing ours returns it
    // to the accept loop, which then sees the stop request.
    C.close();
    S.requestStop();
    Loop.join();
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  void connect() {
    std::string Err;
    JsonValue Id;
    if (!C.connect(S.options().SocketPath, Err) || !C.handshake(Id, Err))
      throw std::runtime_error("client connect failed: " + Err);
  }

  Server S;
  Client C;

private:
  std::thread Loop;
};

JsonValue analyzeRequest(const std::string &Dir) {
  JsonValue Req = JsonValue::object();
  Req.set("cmd", JsonValue::str("analyze"));
  Req.set("dir", JsonValue::str(Dir));
  return Req;
}

/// One analyze round trip. \returns the served report, or nullopt when the
/// request failed (transport error or an error response).
std::optional<std::string> analyze(Client &C, const std::string &Dir,
                                   double *Ms = nullptr) {
  JsonValue Resp;
  std::string Err;
  auto T0 = Clock::now();
  bool Ok = C.request(analyzeRequest(Dir), Resp, Err);
  if (Ms)
    *Ms = msSince(T0);
  if (!Ok || !Resp.boolField("ok")) {
    std::fprintf(stderr, "perfbench: analyze %s failed: %s\n", Dir.c_str(),
                 Ok ? Resp.stringField("error").c_str() : Err.c_str());
    return std::nullopt;
  }
  return Resp.stringField("report");
}

JsonValue daemonStats(Client &C) {
  JsonValue Req = JsonValue::object();
  Req.set("cmd", JsonValue::str("stats"));
  JsonValue Resp;
  std::string Err;
  if (!C.request(Req, Resp, Err))
    throw std::runtime_error("stats request failed: " + Err);
  return Resp;
}

double numberField(const JsonValue &J, const char *Name) {
  const JsonValue *F = J.field(Name);
  return F && F->K == JsonValue::Kind::Number ? F->Num : 0;
}

/// The project a served request analyzes: what the daemon reads from
/// \p Dir when the tree holds \p Source with edit value \p Value.
ProjectSpec servedSpec(const ProjectSpec &Source, const std::string &Dir,
                       uint64_t Value) {
  ProjectSpec Spec;
  Spec.Files = Source.Files;
  setEditValue(Spec, Value);
  Spec.Name = Dir;
  Spec.MainModule = Source.MainModule;
  return Spec;
}

//===----------------------------------------------------------------------===//
// Set-up: work dir, trees, daemon, warm-up
//===----------------------------------------------------------------------===//

/// Flushes the file system that holds \p Dir, so that the writes and
/// deletions of set-up are on disk before anything is timed.
void syncFileSystem(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::syncfs(Fd);
    ::close(Fd);
  }
}

/// Marks \p Dir as the top of a directory tree (FS_TOPDIR_FL): ext4 then
/// spreads its subdirectories over block groups with free room instead of
/// keeping them next to it. Other file systems ignore the flag.
void markTopDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  int Flags = 0;
  if (::ioctl(Fd, FS_IOC_GETFLAGS, &Flags) == 0) {
    Flags |= FS_TOPDIR_FL;
    ::ioctl(Fd, FS_IOC_SETFLAGS, &Flags);
  }
  ::close(Fd);
}

/// The run's work dir: removed when the run starts and when it ends.
///
/// Creating files is most of the cache's write path, and on ext4 its cost
/// depends on the block group that holds the directory: a 2 KB file took
/// 0.04 ms to create in most groups and 0.25-0.5 ms in partly used ones,
/// among them the group next to the checkout. So every directory that a
/// run fills with files (each set-up's trees, each daemon's cache) is made
/// by freshDir: a subdirectory of the work dir, which markTopDir lets the
/// file system place in a group of its choice, and of a few such
/// candidates the one where a trial of file creations ran fastest.
class WorkDir {
public:
  explicit WorkDir(std::string P) : Path(std::move(P)) {
    fs::remove_all(Path);
    fs::create_directories(Path);
    markTopDir(Path);
  }
  ~WorkDir() {
    std::error_code Ignored;
    fs::remove_all(Path, Ignored);
  }
  WorkDir(const WorkDir &) = delete;
  WorkDir &operator=(const WorkDir &) = delete;

  /// A new empty directory \p Name under the work dir, placed as above.
  std::string freshDir(const std::string &Name) const {
    constexpr size_t Candidates = 4, TrialFiles = 32;
    const std::string Content(2048, 'x');
    std::string Best;
    double BestMs = 0;
    for (size_t I = 0; I != Candidates; ++I) {
      std::string Dir = Path + "/" + Name + "." + std::to_string(I);
      fs::create_directories(Dir);
      auto T0 = Clock::now();
      for (size_t F = 0; F != TrialFiles; ++F)
        std::ofstream(Dir + "/" + std::to_string(F), std::ios::binary)
            << Content;
      double Ms = msSince(T0);
      for (size_t F = 0; F != TrialFiles; ++F)
        fs::remove(Dir + "/" + std::to_string(F));
      if (Best.empty() || Ms < BestMs) {
        std::swap(Best, Dir);
        BestMs = Ms;
      }
      if (!Dir.empty())
        fs::remove_all(Dir);
    }
    return Best;
  }

private:
  std::string Path;
};

/// Everything one set-up creates in its own directories: trees, a daemon
/// with an empty cache, and the warm-up of every stream. Destroying it
/// stops the daemon; the files stay until the run removes its work dir.
struct Setup {
  const WorkDir &Work;
  std::string Name;
  std::string Dir;
  Workload W;
  std::vector<std::string> Dirs;
  std::string WarmDir;
  std::unique_ptr<Daemon> D;
  /// Aggregates of the warm-up jobs=1 pass: every later pass must match.
  RunAggregates Ref;

  Setup(const Options &O, const WorkDir &Work, std::string Name, Checks &C,
        bool Serve, bool WarmUp)
      : Work(Work), Name(std::move(Name)), Dir(Work.freshDir(this->Name)) {
    W = makeWorkload(O.Workload, O.Seed, O.Size);
    // Each project's tree lands in a block group of the file system's
    // choosing, so the cost of writing the trees is an average over many
    // groups rather than the luck of one.
    fs::create_directories(Dir + "/t");
    markTopDir(Dir + "/t");
    for (size_t I = 0; I != W.Projects.size(); ++I) {
      Dirs.push_back(Dir + "/t/p" + std::to_string(I));
      writeTree(W.Projects[I], Dirs.back());
    }
    WarmDir = Dir + "/t/w";
    writeTree(W.WarmUp, WarmDir);
    if (WarmUp) {
      DriverOptions DO;
      RunSummary S1 = CorpusDriver(DO).run(W.Projects);
      Ref = S1.Totals;
      checkBatch(S1, Ref, C);
      DO.Jobs = hardwareThreads();
      checkBatch(CorpusDriver(DO).run(W.Projects), Ref, C);
    }
    if (Serve)
      startDaemon(C, WarmUp);
    syncFileSystem(Dir);
  }

  /// A new empty directory for this set-up's caches.
  std::string cacheDir(const std::string &Suffix) const {
    return Work.freshDir(Name + "-" + Suffix);
  }

  /// Replaces the daemon with a fresh one that has an empty cache of its
  /// own, and warms it up with one first, edit and replay of the warm-up
  /// project.
  void startDaemon(Checks &C, bool WarmUp = true) {
    std::string Id = std::to_string(Daemons++);
    D.reset();
    D = std::make_unique<Daemon>(Dir + "/d" + Id + ".sock",
                                 cacheDir("cache" + Id));
    D->connect();
    if (!WarmUp)
      return;
    C.expect(analyze(D->C, WarmDir).has_value(), "warm-up first");
    writeEdit(WarmDir, W.WarmUp, EditBase + Daemons);
    C.expect(analyze(D->C, WarmDir).has_value(), "warm-up edit");
    C.expect(analyze(D->C, WarmDir).has_value(), "warm-up replay");
  }

private:
  size_t Daemons = 0;
};

//===----------------------------------------------------------------------===//
// The untraced run: five timed streams
//===----------------------------------------------------------------------===//

constexpr size_t SetupReps = 3;

/// The timed streams interleave in rounds, so that a slow spell of the
/// machine lands on every stream a little instead of on one stream. Each
/// round serves every project from a fresh daemon with an empty cache, so
/// that every project's first request is timed once per round.
constexpr size_t FullRounds = 8;
/// Edits per round: a fixed count, so that every run edits the same
/// projects and its tail is the same percentile (64 edits: p84.4). On a
/// shared virtual machine the host takes a vCPU away for a few percent of
/// the time, which lands on the top ~10% of short requests; a p92 tail
/// measured that rather than the edit path.
///
/// A round is cut into one slot per edit: a share of the round's first
/// requests, the edit, a share of its replays, then batch passes up to the
/// slot's deadline. Every stream thus samples the whole run, not a few
/// moments of it.
constexpr size_t FullEditsPerRound = 8;
/// Replays per round: a multiple of the project count, at least this many
/// requests. Each slot's replays cycle over the projects served so far.
constexpr size_t MinReplaysPerRound = 64;
/// The share of batch time spent at jobs=1; the rest is at jobs=nproc.
constexpr double SerialShare = 0.6;

/// The reference kernel's time at reference speed: about its median on
/// the machine the bounds were measured on (4 vCPUs of a shared 2.1 GHz
/// Xeon, Release build).
constexpr double ReferenceKernelMs = 2.5;
/// Reference-kernel probes after each round starts its daemon.
constexpr size_t ProbesPerRound = 3;

/// How fast the machine ran a run. On a shared virtual machine, other
/// tenants slow every vCPU by up to 1.5x for seconds to minutes at a time,
/// and the product's own work slows with it. Every timing is therefore
/// reported at reference speed: scaled by ReferenceKernelMs over the median
/// of the reference-kernel probes taken beside it. No change to the
/// product moves the kernel, so a product change still shows in full.
class SpeedProbe {
public:
  /// Times the kernel \p Times times on the calling thread.
  void probe(size_t Times = 1) {
    for (size_t I = 0; I != Times; ++I)
      OneMs.push_back(referenceKernelMs());
  }
  /// Times the kernel on \p Threads threads at once, as the jobs=nproc
  /// batch passes use the machine.
  void probeAll(size_t Threads) {
    std::vector<double> Ms(Threads);
    std::vector<std::thread> Pool;
    for (size_t T = 0; T != Threads; ++T)
      Pool.emplace_back([&Ms, T] { Ms[T] = referenceKernelMs(); });
    for (std::thread &T : Pool)
      T.join();
    AllMs.push_back(median(Ms));
  }
  /// Factor that turns a time measured on the probed thread into a time at
  /// reference speed; for \p All, one measured on every vCPU at once.
  double timeScale(bool All = false) const {
    return ratio(ReferenceKernelMs, median(All ? AllMs : OneMs));
  }
  std::string describe() const {
    return number(median(OneMs)) + " ms on one thread (" +
           std::to_string(OneMs.size()) + " probes), " +
           number(median(AllMs)) + " ms on every vCPU (" +
           std::to_string(AllMs.size()) + " probes)";
  }

private:
  std::vector<double> OneMs, AllMs;
};

/// Keeps the calling thread, and every thread it starts, on one vCPU. On a
/// shared machine each vCPU's speed drifts on its own, and the reference
/// probes can only scale work that ran on the vCPU they measured. So the
/// client, every daemon and the probes share one vCPU, the last one the
/// run may use; the client waits while the daemon works, so they never
/// compete for it.
class OneCpu {
public:
  OneCpu() {
    CPU_ZERO(&All);
    CPU_ZERO(&One);
    if (sched_getaffinity(0, sizeof(All), &All) != 0)
      return;
    for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu)
      if (CPU_ISSET(Cpu, &All)) {
        CPU_SET(Cpu, &One);
        break;
      }
  }
  void pin() const { set(One); }
  /// Lets the calling thread, and the threads it starts, use every vCPU.
  void unpin() const { set(All); }

private:
  cpu_set_t All, One;
  static void set(const cpu_set_t &Cpus) {
    if (CPU_COUNT(&Cpus))
      sched_setaffinity(0, sizeof(Cpus), &Cpus);
  }
};

/// A served first or edit request, kept for the local comparison.
struct ServedState {
  size_t Project = 0;
  uint64_t Value = 0;
  std::string Report;
};

/// Every served report must equal the renderReport bytes of a local,
/// cache-less run over the same tree. The rounds serve the same trees
/// again, so there is one local run per distinct tree. The local runs fan
/// out over all cores; each one is a single-project run, as the daemon's
/// is.
void checkServedReports(const Setup &S, const std::vector<ServedState> &States,
                        Checks &C) {
  using Tree = std::pair<size_t, uint64_t>; // (project, edit value)
  std::map<Tree, std::string> Local;
  for (const ServedState &St : States)
    Local.try_emplace({St.Project, St.Value});
  std::vector<std::pair<const Tree, std::string> *> Todo;
  for (auto &Entry : Local)
    Todo.push_back(&Entry);
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Todo.size();) {
      auto &[Key, Report] = *Todo[I];
      try {
        DriverOptions DO;
        ProjectSpec Spec =
            servedSpec(S.W.Projects[Key.first], S.Dirs[Key.first], Key.second);
        Report = renderReport(CorpusDriver(DO).run({Spec}), DO);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "perfbench: local run failed: %s\n", E.what());
      }
    }
  };
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != hardwareThreads(); ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();
  for (const ServedState &St : States)
    C.expect(!St.Report.empty() &&
                 Local.at({St.Project, St.Value}) == St.Report,
             "served report of " + S.Dirs[St.Project] + " (edit " +
                 std::to_string(St.Value) + ") differs from the local report");
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return double(U.ru_maxrss) / 1024.0; // KiB on Linux.
}

int runEndToEnd(const Options &O) {
  Checks C;
  // Each set-up gets its own directory, so that no set-up deletes files
  // while a later one is timed.
  WorkDir Work(RunDir);
  std::unique_ptr<Setup> S;
  std::vector<double> SetupS;
  for (size_t Rep = 0; Rep != SetupReps; ++Rep) {
    S.reset();
    auto T0 = Rep == 0 ? ProcessStart : Clock::now();
    S = std::make_unique<Setup>(O, Work, "s" + std::to_string(Rep), C,
                                /*Serve=*/true, /*WarmUp=*/true);
    SetupS.push_back(secondsSince(T0));
  }
  size_t N = S->W.Projects.size();
  size_t NProc = hardwareThreads();
  bool Full = O.Size == Scale::Full;
  size_t Rounds = Full ? FullRounds : 2;
  size_t EditsPerRound = Full ? FullEditsPerRound : 11;

  DriverOptions One, All;
  All.Jobs = NProc;
  std::vector<double> Rate1, RateN, FirstMs, EditMs, ReplayMs;
  SpeedProbe Speed;
  OneCpu Pin;
  Pin.pin();
  double SerialS = 0, ParallelS = 0; // Batch time so far.
  auto BatchPass = [&](bool Serial) {
    if (!Serial)
      Pin.unpin();
    auto T0 = Clock::now();
    RunSummary Sum = CorpusDriver(Serial ? One : All).run(S->W.Projects);
    double Seconds = secondsSince(T0);
    if (!Serial)
      Speed.probeAll(NProc);
    Pin.pin();
    (Serial ? Rate1 : RateN).push_back(double(N) / Seconds);
    (Serial ? SerialS : ParallelS) += Seconds;
    checkBatch(Sum, S->Ref, C);
    Speed.probe();
  };
  auto Request = [&](size_t P, std::vector<double> &Ms) {
    double T = 0;
    std::optional<std::string> R = analyze(S->D->C, S->Dirs[P], &T);
    Ms.push_back(T);
    return R;
  };

  std::vector<ServedState> States;
  std::vector<uint64_t> Value(N, EditBase); // Each tree's edit literal.
  std::vector<std::string> Current(N);      // Each project's last response.
  uint64_t NextValue = EditBase + 1;
  size_t ReplaysPerRound = (MinReplaysPerRound + N - 1) / N * N;
  size_t Slots = Rounds * EditsPerRound;
  auto Start = Clock::now();
  for (size_t R = 0; R != Rounds; ++R) {
    S->startDaemon(C);
    Speed.probe(ProbesPerRound);
    size_t Served = 0, Replays = 0;
    for (size_t Slot = 0; Slot != EditsPerRound; ++Slot) {
      size_t Begin = Served;
      for (size_t End = (N * (Slot + 1) + EditsPerRound - 1) / EditsPerRound;
           Served < End; ++Served) {
        std::optional<std::string> Rep = Request(Served, FirstMs);
        C.expect(Rep.has_value(), "first " + S->Dirs[Served]);
        Current[Served] = Rep.value_or("");
        States.push_back({Served, Value[Served], Current[Served]});
      }
      // The edit goes to one of the projects this slot served first; the
      // rounds move it through them.
      size_t P = Served > Begin ? Begin + R % (Served - Begin)
                                : EditMs.size() % Served;
      Value[P] = NextValue++;
      writeEdit(S->Dirs[P], S->W.Projects[P], Value[P]);
      std::optional<std::string> Rep = Request(P, EditMs);
      C.expect(Rep.has_value(), "edit " + S->Dirs[P]);
      Current[P] = Rep.value_or("");
      States.push_back({P, Value[P], Current[P]});
      for (size_t End = ReplaysPerRound * (Slot + 1) / EditsPerRound;
           Replays < End; ++Replays) {
        size_t Q = Replays % Served;
        Rep = Request(Q, ReplayMs);
        C.expect(Rep && *Rep == Current[Q],
                 "replay of " + S->Dirs[Q] +
                     " differs from the response it repeats");
      }
      Speed.probe();
      double Deadline = O.Seconds * double(R * EditsPerRound + Slot + 1) /
                        double(Slots);
      while (secondsSince(Start) < Deadline)
        BatchPass(SerialS <= SerialShare * (SerialS + ParallelS));
    }
    // The warm-up's replay is the daemon's only other replay hit.
    JsonValue Stats = daemonStats(S->D->C);
    C.expect(numberField(Stats, "replay_hits") == double(Replays + 1),
             "daemon replay hits differ from the replay stream");
    C.expect(numberField(Stats, "errors") == 0, "daemon reported errors");
  }
  if (Rate1.empty())
    BatchPass(true);
  if (RateN.empty())
    BatchPass(false);
  double RssMb = peakRssMb();
  Pin.unpin();

  checkServedReports(*S, States, C);
  checkExpected(O, S->Ref, C);
  if (O.Workload == "corpus" && O.Seed == DefaultSeed && O.Size == Scale::Full)
    C.expect(isDefaultSuite(S->W.Projects),
             "the corpus on the default seed is not buildBenchmarkSuite()'s");

  double ToReference = Speed.timeScale(), ToReferenceAll = Speed.timeScale(true);
  std::printf("speed: reference kernel (%s ms at reference speed) took %s; "
              "timings scaled by %s, jobs=nproc rates by %s\n",
              number(ReferenceKernelMs).c_str(), Speed.describe().c_str(),
              number(ToReference).c_str(), number(ToReferenceAll).c_str());
  Tail EditTail = tailOf(EditMs);
  char TailNote[64];
  std::snprintf(TailNote, sizeof(TailNote), "%zu requests, p%.1f",
                EditMs.size(), EditTail.Percentile);
  auto Passes = [&](const std::vector<double> &R) {
    return std::to_string(R.size()) + " passes of " + std::to_string(N) +
           " projects";
  };
  auto Requests = [](const std::vector<double> &R) {
    return std::to_string(R.size()) + " requests";
  };
  // A timing at reference speed; the samples column keeps the raw value.
  auto Time = [&](const char *Name, double Raw, const char *Unit,
                  std::string Samples) {
    return Metric{Name, Raw * ToReference, Unit,
                  Samples + "; unscaled " + number(Raw)};
  };
  auto Rate = [&](const char *Name, double Raw, double Scale,
                  std::string Samples) {
    return Metric{Name, Raw / Scale, "1/s",
                  Samples + "; unscaled " + number(Raw)};
  };
  std::vector<Metric> Ms = {
      Rate("projects_per_s", median(Rate1), ToReference, Passes(Rate1)),
      Rate("projects_per_s_parallel", median(RateN), ToReferenceAll,
           Passes(RateN) + ", jobs=" + std::to_string(NProc)),
      Time("first_p50_ms", median(FirstMs), "ms", Requests(FirstMs)),
      Time("edit_p50_ms", median(EditMs), "ms", Requests(EditMs)),
      Time("edit_tail_ms", EditTail.Value, "ms", TailNote),
      Time("replay_p50_ms", median(ReplayMs), "ms", Requests(ReplayMs)),
      {"peak_rss_mb", RssMb, "MB", "1 process"},
      Time("setup_s", median(SetupS), "s",
           std::to_string(SetupS.size()) + " set-ups"),
  };
  S.reset();
  printResult(C, Ms);
  return 0;
}

//===----------------------------------------------------------------------===//
// The traced run: per-layer metrics
//===----------------------------------------------------------------------===//

/// Counters gathered over one traced pass of the project pipeline.
struct LayerCounters {
  double CodeKb = 0;
  uint64_t ForcedExecutions = 0, FunctionsVisited = 0, FunctionsTotal = 0;
  uint64_t Aborts = 0, Hints = 0;
  InterpStats Interp;
  uint64_t Tokens = 0, Edges = 0, DuplicateEdges = 0, Cycles = 0;
  uint64_t SetBytesPeak = 0;
};

/// The approximate-interpretation roots of \p Spec, as Pipeline picks
/// them: the main module first, then every other module of its package.
std::vector<std::string> analysisRoots(const ProjectSpec &Spec) {
  std::string Pkg = Spec.MainModule.substr(0, Spec.MainModule.find('/') + 1);
  std::vector<std::string> Roots{Spec.MainModule};
  for (const std::string &Path : Spec.Files.allPaths())
    if (Path != Spec.MainModule && Path.rfind(Pkg, 0) == 0)
      Roots.push_back(Path);
  return Roots;
}

/// The per-project pipeline as Pipeline::analyzeProject runs it with the
/// cache off, one span per public call. \returns the pass's wall time, ms.
double projectPass(const std::vector<ProjectSpec> &Projects, SpanRecorder &Rec,
                   LayerCounters *K, Checks *C) {
  auto T0 = Clock::now();
  for (size_t I = 0; I != Projects.size(); ++I) {
    const ProjectSpec &Spec = Projects[I];
    SpanRecorder::Scope P(Rec, "project", int64_t(I));
    std::optional<ProjectAnalyzer> A;
    {
      SpanRecorder::Scope S(Rec, "frontend.parse", int64_t(I));
      A.emplace(Spec);
    }
    AnalysisResult Base, Ext;
    {
      SpanRecorder::Scope S(Rec, "analysis.baseline", int64_t(I));
      Base = A->analyze(AnalysisMode::Baseline);
    }
    {
      SpanRecorder::Scope S(Rec, "approx.hints", int64_t(I));
      A->hints();
    }
    {
      SpanRecorder::Scope S(Rec, "analysis.extended", int64_t(I));
      Ext = A->analyze(AnalysisMode::Hints);
    }
    const CallGraph *Dyn = nullptr;
    if (Spec.hasDynamicCallGraph()) {
      SpanRecorder::Scope S(Rec, "callgraph.dynamic", int64_t(I));
      Dyn = &A->dynamicCallGraph();
    }
    bool Contains;
    {
      SpanRecorder::Scope S(Rec, "callgraph.compare", int64_t(I));
      Contains = containsBaseline(Ext, Base);
      if (Dyn) {
        compareCallGraphs(Base.CG, *Dyn);
        compareCallGraphs(Ext.CG, *Dyn);
      }
    }
    if (C)
      C->expect(Contains,
                Spec.Name + ": extended call graph misses a baseline edge");
    if (!K)
      continue;
    const ApproxStats &AS = A->approxStats();
    K->CodeKb += double(Spec.codeBytes()) / 1024.0;
    K->ForcedExecutions += AS.NumForcedExecutions;
    K->FunctionsVisited += AS.NumFunctionsVisited;
    K->FunctionsTotal += AS.NumFunctionsTotal;
    K->Aborts += AS.NumAborts;
    K->Hints += A->hints().size();
    K->Interp += AS.Interp;
    for (const AnalysisResult *R : {&Base, &Ext}) {
      K->Tokens += R->Solver.NumTokensPropagated;
      K->Edges += R->Solver.NumEdges;
      K->DuplicateEdges += R->Solver.NumDuplicateEdges;
      K->Cycles += R->Solver.NumCyclesCollapsed;
      K->SetBytesPeak = std::max<uint64_t>(K->SetBytesPeak,
                                           R->Solver.SetBytesPeak);
    }
  }
  return msSince(T0);
}

/// The cache layer, called directly: partition and key per project, then
/// publish, a warm load, and a load after an edit of the main module.
/// \returns the share of components served from slices after the edit.
double cachePass(const Setup &St, SpanRecorder &Rec, Checks &C) {
  CacheConfig CC;
  CC.Dir = St.cacheDir("trace-cache");
  ArtifactCache Cache(CC);
  ApproxOptions AO;
  size_t Components = 0, Reused = 0;
  for (size_t I = 0; I != St.W.Projects.size(); ++I) {
    const ProjectSpec &Spec = St.W.Projects[I];
    std::vector<std::string> Roots = analysisRoots(Spec);
    {
      SpanRecorder::Scope S(Rec, "cache.partition", int64_t(I));
      computeModulePartition(Spec.Files, Roots);
    }
    {
      SpanRecorder::Scope S(Rec, "cache.key", int64_t(I));
      ArtifactCache::computeKey(
          Spec.Files, ArtifactCache::fingerprint(AO, Spec.MainModule));
    }
    ProjectAnalyzer Cold(Spec, AO, &Cache);
    AnalysisResult Base = Cold.analyze(AnalysisMode::Baseline);
    AnalysisResult Ext = Cold.analyze(AnalysisMode::Hints);
    {
      SpanRecorder::Scope S(Rec, "cache.store", int64_t(I));
      Cold.publishToCache(&Base, &Ext);
    }
    ProjectAnalyzer Warm(Spec, AO, &Cache);
    {
      SpanRecorder::Scope S(Rec, "cache.load", int64_t(I));
      Warm.hints();
    }
    // Hints from another context cannot be compared directly (eval code
    // has its own locations), so compare what they lead to.
    AnalysisResult WarmExt = Warm.analyze(AnalysisMode::Hints);
    C.expect(Warm.hintsFromCache() &&
                 WarmExt.NumCallEdges == Ext.NumCallEdges &&
                 WarmExt.NumReachableFunctions == Ext.NumReachableFunctions &&
                 WarmExt.NumResolvedCallSites == Ext.NumResolvedCallSites,
             Spec.Name + ": analysis over cached hints differs from cold");
    ProjectSpec Edited = Spec;
    setEditValue(Edited, EditBase + 1);
    ProjectAnalyzer AfterEdit(Edited, AO, &Cache);
    AfterEdit.hints();
    Components += AfterEdit.numComponents();
    Reused += AfterEdit.numComponentsFromCache();
  }
  return ratio(double(Reused), double(Components));
}

struct ServeLayer {
  std::map<std::string, std::vector<double>> WaitMs; ///< By request kind.
  JsonValue Stats;
  double Errors = 0;
};

/// Replays one request sequence against a socket daemon and, call by
/// call, against a socket-less Server::handleLine, plus the directory
/// read and source digest the daemon performs per request.
ServeLayer servePass(const Options &O, const Setup &St, SpanRecorder &Rec,
                     Checks &C) {
  ServeLayer Out;
  Daemon D(St.Dir + "/trace.sock", St.cacheDir("trace-cache-1"));
  D.connect();
  Server Direct(serveOptions("", St.cacheDir("trace-cache-2")));
  size_t N = St.W.Projects.size();
  size_t Count = std::max<size_t>(N, O.Size == Scale::Full ? 24 : 3);
  std::vector<std::pair<std::string, size_t>> Seq; // (kind, project)
  for (size_t I = 0; I != N; ++I)
    Seq.push_back({"first", I});
  for (size_t I = 0; I != Count; ++I)
    Seq.push_back({"edit", I % N});
  for (size_t I = 0; I != Count; ++I)
    Seq.push_back({"replay", I % N});

  uint64_t NextValue = EditBase + 1;
  std::vector<std::string> Current(N);
  for (size_t K = 0; K != Seq.size(); ++K) {
    const auto &[Kind, P] = Seq[K];
    const std::string &Dir = St.Dirs[P];
    if (Kind == "edit")
      writeEdit(Dir, St.W.Projects[P], NextValue++);
    std::string Line = writeJson(analyzeRequest(Dir));
    SpanRecorder::Scope Req(Rec, "request", int64_t(K));
    std::optional<std::string> Sent;
    std::string Handled;
    double RoundTripMs = 0, HandleMs = 0;
    auto RoundTrip = [&] {
      auto T0 = Clock::now();
      SpanRecorder::Scope S(Rec, "serve.roundtrip." + Kind, int64_t(K));
      Sent = analyze(D.C, Dir);
      RoundTripMs = msSince(T0);
    };
    auto Handle = [&] {
      auto T0 = Clock::now();
      SpanRecorder::Scope S(Rec, "serve.handle." + Kind, int64_t(K));
      bool Shutdown = false;
      Handled = Direct.handleLine(Line, Shutdown);
      HandleMs = msSince(T0);
    };
    // Alternate which server goes first, so that neither always runs on
    // caches the other has just warmed.
    if (K % 2) {
      Handle();
      RoundTrip();
    } else {
      RoundTrip();
      Handle();
    }
    Out.WaitMs[Kind].push_back(RoundTripMs - HandleMs);
    FileSystem Files;
    {
      SpanRecorder::Scope S(Rec, "serve.dir_read", int64_t(K));
      Files.addDirectory(Dir);
    }
    {
      SpanRecorder::Scope S(Rec, "serve.digest", int64_t(K));
      Sha256 H;
      for (const std::string &Path : Files.allPaths()) {
        H.update(Path);
        H.update("\0", 1);
        H.update(Files.read(Path));
        H.update("\0", 1);
      }
      H.digest();
    }
    JsonValue Resp;
    std::string Err;
    bool Same = Sent && parseJson(Handled, Resp, Err) &&
                Resp.boolField("ok") && Resp.stringField("report") == *Sent;
    C.expect(Same, Kind + " " + Dir + ": socket and direct responses differ");
    if (Kind == "replay")
      C.expect(Sent && *Sent == Current[P],
               "replay of " + Dir + " differs from its first response");
    else
      Current[P] = Sent.value_or("");
  }
  Out.Stats = daemonStats(D.C);
  Out.Errors = numberField(Out.Stats, "errors") + double(Direct.stats().Errors);
  C.expect(numberField(Out.Stats, "replay_hits") == double(Count),
           "daemon replay hits differ from the replay stream");
  return Out;
}

int runTraced(const Options &O) {
  Checks C;
  WorkDir Work(RunDir);
  Setup St(O, Work, "s0", C, /*Serve=*/false, /*WarmUp=*/false);
  const std::vector<ProjectSpec> &P = St.W.Projects;
  double N = double(P.size());
  size_t Reps = O.Size == Scale::Full ? 3 : 1;
  SpanRecorder Rec;

  // Untraced and traced passes alternate after one warm-up pass; their
  // medians give the tracing overhead.
  SpanRecorder Off(false);
  projectPass(P, Off, nullptr, nullptr);
  LayerCounters K;
  std::vector<double> UntracedMs, TracedMs;
  for (size_t R = 0; R != Reps; ++R) {
    UntracedMs.push_back(projectPass(P, Off, nullptr, nullptr));
    TracedMs.push_back(
        projectPass(P, Rec, R == 0 ? &K : nullptr, R == 0 ? &C : nullptr));
  }
  double ProjectRuns = N * double(Reps);
  double ProjectMs = Rec.totalMs("project");
  auto PerProject = [&](const char *Span) {
    return Rec.totalMs(Span) / ProjectRuns;
  };
  auto Share = [&](double Ms) { return ratio(Ms, ProjectMs); };
  double ParseMs = Rec.totalMs("frontend.parse");
  double ApproxMs = Rec.totalMs("approx.hints");
  double AnalysisMs =
      Rec.totalMs("analysis.baseline") + Rec.totalMs("analysis.extended");
  double CallgraphMs =
      Rec.totalMs("callgraph.dynamic") + Rec.totalMs("callgraph.compare");

  double ReuseFrac = cachePass(St, Rec, C);

  DriverOptions DO;
  DO.Jobs = hardwareThreads();
  std::vector<double> Busy, Slowest;
  for (size_t R = 0; R != Reps; ++R) {
    RunSummary Sum;
    {
      SpanRecorder::Scope S(Rec, "driver.run");
      Sum = CorpusDriver(DO).run(P);
    }
    double JobSeconds = 0, Max = 0;
    for (const JobResult &J : Sum.Jobs) {
      JobSeconds += J.TotalSeconds;
      Max = std::max(Max, J.TotalSeconds);
      C.expect(J.Report.Outcome == ProjectOutcome::Ok,
               J.Report.Name + ": outcome " +
                   projectOutcomeName(J.Report.Outcome));
    }
    Busy.push_back(ratio(JobSeconds, double(Sum.Workers) * Sum.WallSeconds));
    Slowest.push_back(Max * 1e3);
    SpanRecorder::Scope S(Rec, "driver.report");
    renderReport(Sum, DO);
    if (R == 0)
      checkExpected(O, Sum.Totals, C);
  }

  ServeLayer SL = servePass(O, St, Rec, C);
  const JsonValue *CacheStats = SL.Stats.field("cache");
  auto CacheField = [&](const char *Name) {
    return CacheStats ? numberField(*CacheStats, Name) : 0;
  };
  std::map<std::string, double> Self = Rec.selfMsByLayer();

  std::vector<Metric> Ms = {
      {"frontend.parse_ms", ParseMs / ProjectRuns, "ms", ""},
      {"frontend.kb_per_ms", ratio(K.CodeKb * double(Reps), ParseMs), "KB/ms",
       ""},
      {"approx.ms", ApproxMs / ProjectRuns, "ms", ""},
      {"approx.forced_executions", double(K.ForcedExecutions) / N, "count",
       ""},
      {"approx.visited_frac",
       ratio(double(K.FunctionsVisited), double(K.FunctionsTotal)), "ratio",
       ""},
      {"approx.aborts", double(K.Aborts) / N, "count", ""},
      {"approx.hints", double(K.Hints) / N, "count", ""},
      {"approx.ic_accesses",
       double(K.Interp.icHits() + K.Interp.icMisses()) / N, "count", ""},
      {"approx.ic_hit_rate", K.Interp.icHitRate(), "ratio", ""},
      {"approx.shape_transitions", double(K.Interp.ShapeTransitions) / N,
       "count", ""},
      {"analysis.baseline_ms", PerProject("analysis.baseline"), "ms", ""},
      {"analysis.extended_ms", PerProject("analysis.extended"), "ms", ""},
      {"analysis.tokens_propagated", double(K.Tokens) / N, "count", ""},
      {"analysis.edges", double(K.Edges) / N, "count", ""},
      {"analysis.edge_useful_frac",
       ratio(double(K.Edges), double(K.Edges + K.DuplicateEdges)), "ratio",
       ""},
      {"analysis.cycles_collapsed", double(K.Cycles) / N, "count", ""},
      {"analysis.set_kb_peak", double(K.SetBytesPeak) / 1024.0, "KB", ""},
      {"cache.partition_ms", Rec.totalMs("cache.partition") / N, "ms", ""},
      {"cache.key_ms", Rec.totalMs("cache.key") / N, "ms", ""},
      {"cache.load_ms", Rec.totalMs("cache.load") / N, "ms", ""},
      {"cache.store_ms", Rec.totalMs("cache.store") / N, "ms", ""},
      {"cache.edit_reuse_frac", ReuseFrac, "ratio", ""},
      {"cache.hits", CacheField("hits"), "count", ""},
      {"cache.misses", CacheField("misses"), "count", ""},
      {"cache.kb_read", CacheField("bytes_read") / 1024.0, "KB", ""},
      {"cache.kb_written", CacheField("bytes_written") / 1024.0, "KB", ""},
      {"callgraph.dynamic_ms", PerProject("callgraph.dynamic"), "ms", ""},
      {"callgraph.compare_ms", PerProject("callgraph.compare"), "ms", ""},
      {"driver.busy_frac", median(Busy), "ratio", ""},
      {"driver.slowest_job_ms", median(Slowest), "ms", ""},
      {"driver.report_ms", median(Rec.durationsMs("driver.report")), "ms",
       ""},
  };
  for (const char *Kind : {"first", "edit", "replay"})
    Ms.push_back({std::string("serve.handle_ms.") + Kind,
                  median(Rec.durationsMs(std::string("serve.handle.") + Kind)),
                  "ms", ""});
  for (const char *Kind : {"first", "edit", "replay"})
    Ms.push_back({std::string("serve.wait_ms.") + Kind,
                  median(SL.WaitMs[Kind]), "ms", ""});
  Ms.push_back({"serve.dir_read_ms", median(Rec.durationsMs("serve.dir_read")),
                "ms", ""});
  Ms.push_back(
      {"serve.digest_ms", median(Rec.durationsMs("serve.digest")), "ms", ""});
  Ms.push_back(
      {"serve.replay_hits", numberField(SL.Stats, "replay_hits"), "count", ""});
  Ms.push_back({"serve.errors", SL.Errors, "count", ""});
  for (const char *Layer : {"frontend", "approx", "analysis", "cache",
                            "callgraph", "driver", "serve"})
    Ms.push_back({std::string(Layer) + ".self_ms", Self[Layer], "ms", ""});
  Ms.push_back({"trace.project_ms", ProjectMs / ProjectRuns, "ms", ""});
  Ms.push_back({"trace.frontend_frac", Share(ParseMs), "ratio", ""});
  Ms.push_back({"trace.approx_frac", Share(ApproxMs), "ratio", ""});
  Ms.push_back({"trace.analysis_frac", Share(AnalysisMs), "ratio", ""});
  Ms.push_back({"trace.callgraph_frac", Share(CallgraphMs), "ratio", ""});
  double Untraced = median(UntracedMs);
  Ms.push_back({"trace.overhead_frac",
                ratio(median(TracedMs) - Untraced, Untraced), "ratio", ""});

  std::string TraceOut = std::string(OutDir) + "/trace-" + O.Workload + "-" +
                         std::to_string(O.Seed) + ".json";
  fs::create_directories(OutDir);
  C.expect(Rec.writeChromeJson(TraceOut), "cannot write " + TraceOut);
  std::printf("trace: %zu spans written to %s\n", Rec.spans().size(),
              TraceOut.c_str());
  printResult(C, Ms);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::signal(SIGPIPE, SIG_IGN);
  for (const char *Var : OverrideVars)
    if (std::getenv(Var)) {
      std::fprintf(stderr,
                   "perfbench: %s is set; the benchmark measures the product "
                   "defaults only, unset it\n",
                   Var);
      return 2;
    }
  Options O;
  std::string Err;
  if (!parseArgs(Argc, Argv, O, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%s trace=%d "
              "scale=%s engine=%s vm_opt=%s solver_set=%s solver_jobs=%zu "
              "build=%s nproc=%zu\n",
              O.Workload.c_str(), (unsigned long long)O.Seed,
              number(O.Seconds).c_str(), int(O.Trace),
              O.Size == Scale::Full ? "full" : "tiny",
              interpEngineKindName(defaultInterpEngineKind()),
              vmOptModeName(defaultVmOptEnabled()),
              solverSetKindName(defaultSolverSetKind()), defaultSolverJobs(),
              PERFBENCH_BUILD_TYPE, hardwareThreads());
  try {
    return O.Trace ? runTraced(O) : runEndToEnd(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
