//===- Workloads.cpp - Seeded benchmark inputs ----------------------------===//

#include "Workloads.h"

#include "corpus/BenchmarkSuite.h"
#include "corpus/PatternGenerators.h"
#include "support/Rng.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

using namespace jsai;
using namespace perfbench;

namespace {

const char EditPrefix[] = "var perfbenchEdit = ";

/// Appends the edit literal to \p Spec's main module.
void addEditLiteral(ProjectSpec &Spec) {
  std::string Main = Spec.Files.read(Spec.MainModule);
  if (!Main.empty() && Main.back() != '\n')
    Main += '\n';
  Main += EditPrefix + std::to_string(EditBase) + ";\n";
  Spec.Files.addFile(Spec.MainModule, std::move(Main));
}

/// Offset of the edit literal's digits in \p Source.
size_t editOffset(const std::string &Source) {
  size_t At = Source.rfind(EditPrefix);
  if (At == std::string::npos)
    throw std::runtime_error("main module has no edit literal");
  return At + sizeof(EditPrefix) - 1;
}

std::string editDigits(uint64_t Value) {
  std::string Digits = std::to_string(Value);
  if (Value < EditBase || Digits.size() != std::to_string(EditBase).size())
    throw std::runtime_error("edit value out of range");
  return Digits;
}

/// A small test driver outside the app package (so it is no analysis
/// root) that calls one library function once: the dynamic call graph is
/// a light layer on the loop workloads.
void addTestDriver(ProjectSpec &Spec, const std::string &Pkg,
                   const std::string &Call) {
  std::string Source = "var lib = require('";
  Source += Pkg;
  Source += "');\nlib." + Call + ";\n";
  Spec.Files.addFile("test/run.js", Source);
  Spec.TestDriver = "test/run.js";
}

/// A short seeded identifier suffix, so names differ from seed to seed.
std::string tag(Rng &R) { return std::to_string(R.range(100, 999)); }

/// Iterations of each loop kernel; the per-execution loop budget (50000)
/// is far above, so every iteration really executes.
constexpr unsigned LoopIterations = 4000;
/// Library components per `loops` project; kernel kinds alternate.
constexpr unsigned LoopComponents = 3;

void arithmeticKernel(SourceWriter &W, Rng &R) {
  W.open("exports.run = function (n, seed) {")
      .line("var s = seed, a = 1, b = 2, c = 3;")
      .open("for (var i = 0; i < n; i = i + 1) {")
      .line("a = (a * " + std::to_string(R.range(17, 61)) + " + i) % " +
            std::to_string(R.range(997, 1499)) + ";")
      .line("b = b + a - (i % 7);")
      .line("c = b < " + std::to_string(R.range(300, 700)) +
            " ? c + 2 : c - 1;")
      .line("s = s + a + b * 2 - c;")
      .line("if (s > 1000000) { s = s - 1000000; }")
      .close()
      .line("return s;")
      .close("};");
}

void switchKernel(SourceWriter &W, Rng &R) {
  W.open("exports.run = function (n, seed) {")
      .line("var st = 0, acc = seed, i = 0;")
      .open("while (i < n) {")
      .open("switch (st % 4) {")
      .line("case 0: acc = acc + i * " + std::to_string(R.range(2, 9)) +
            "; st = st + 1; break;")
      .line("case 1: acc = acc - (i % 5); st = st + 3; break;")
      .line("case 2: acc = (acc * 7 + 1) % " +
            std::to_string(R.range(9001, 10007)) + "; st = st + 1; break;")
      .line("default: acc = acc + 1; st = acc % 9; break;")
      .close()
      .line("acc = (acc * 5 + st) % 9973;")
      .line("i = i + 1;")
      .close()
      .line("return acc;")
      .close("};");
}

/// A tiny main-module component plus LoopComponents library components,
/// each rooted at its own app module: an edit to the main module leaves
/// every kernel component's cache slices valid.
ProjectSpec makeLoopsProject(Rng &R, size_t Index) {
  ProjectSpec Spec;
  Spec.Name = "loops-";
  Spec.Name += std::to_string(Index);
  Spec.Pattern = "loop-kernels";
  std::string Main = "var level = " + std::to_string(R.range(1, 9)) + ";\n";
  // Kernel kinds alternate, starting from the project index's parity, so
  // every run carries the same mix of work.
  unsigned First = unsigned(Index % 2);
  std::string FirstPkg;
  for (unsigned K = 0; K != LoopComponents; ++K) {
    std::string Pkg = "kern" + std::to_string(K) + "_" + tag(R);
    if (K == 0)
      FirstPkg = Pkg;
    SourceWriter Lib;
    if ((K + First) % 2 == 0)
      arithmeticKernel(Lib, R);
    else
      switchKernel(Lib, R);
    Spec.Files.addFile(Pkg + "/index.js", Lib.str());
    Spec.Files.addFile("app/job" + std::to_string(K) + ".js",
                       "var lib = require('" + Pkg + "');\n"
                       "var out = lib.run(" +
                           std::to_string(LoopIterations) + ", " +
                           std::to_string(R.range(1, 99)) + ");\n");
  }
  Spec.Files.addFile("app/main.js", Main);
  if (Index % 4 == 0)
    addTestDriver(Spec, FirstPkg, "run(20, 1)");
  return Spec;
}

/// Loop iterations per `objects` library; all libraries run inside the
/// main module's one execution, whose loop budget is 50000.
constexpr unsigned ObjectIterations = 450;
/// Libraries required by every `objects` main module.
constexpr unsigned ObjectLibraries = 3;

void objectLibrary(SourceWriter &W, Rng &R) {
  std::string T = tag(R);
  std::string Circle = "Circle" + T, Rect = "Rect" + T, Acc = "Acc" + T;
  W.open("function " + Circle + "(r) {")
      .line("this.r = r;")
      .line("this.kind = 1;")
      .close();
  W.open(Circle + ".prototype.area = function () {")
      .line("return this.r * this.r * 3;")
      .close("};");
  W.open(Circle + ".prototype.grow = function (k) {")
      .line("this.r = this.r + k;")
      .line("return this;")
      .close("};");
  W.open("function " + Rect + "(w, h) {")
      .line("this.w = w;")
      .line("this.h = h;")
      .line("this.kind = 2;")
      .close();
  W.open(Rect + ".prototype.area = function () {")
      .line("return this.w * this.h;")
      .close("};");
  W.open(Rect + ".prototype.grow = function (k) {")
      .line("this.w = this.w + k;")
      .line("return this;")
      .close("};");
  W.open("function " + Acc + "() {")
      .line("this.total = 0;")
      .line("this.count = 0;")
      .close();
  W.open(Acc + ".prototype.add = function (s) {")
      .line("this.total = (this.total + s.area() + s.kind) % " +
            std::to_string(R.range(100003, 999983)) + ";")
      .line("this.count = this.count + 1;")
      .line("return this.total;")
      .close("};");
  W.open("exports.run = function (n, seed) {")
      .line("var acc = new " + Acc + "();")
      .open("for (var i = 0; i < n; i = i + 1) {")
      .line("var c = new " + Circle + "(i % " + std::to_string(R.range(7, 17)) +
            " + seed);")
      .line("var q = new " + Rect + "(i % 7, seed);")
      .line("var s = i % 2 === 0 ? c : q;")
      .line("acc.add(c.grow(1));") // Monomorphic receiver.
      .line("acc.add(s.grow(2));") // Polymorphic receiver.
      .close()
      .line("return acc.total;")
      .close("};");
}

/// One import-closure component: the main module requires every library,
/// so an edit anywhere re-runs the whole project.
ProjectSpec makeObjectsProject(Rng &R, size_t Index) {
  ProjectSpec Spec;
  Spec.Name = "objects-";
  Spec.Name += std::to_string(Index);
  Spec.Pattern = "object-loops";
  SourceWriter Main;
  std::string Sum = "var total = 0";
  std::string FirstPkg;
  for (unsigned L = 0; L != ObjectLibraries; ++L) {
    std::string Pkg = "geom" + std::to_string(L) + "_" + tag(R);
    std::string Var = "g" + std::to_string(L);
    if (L == 0)
      FirstPkg = Pkg;
    SourceWriter Lib;
    objectLibrary(Lib, R);
    Spec.Files.addFile(Pkg + "/index.js", Lib.str());
    Main.line("var " + Var + " = require('" + Pkg + "');");
    Sum += " + " + Var + ".run(" + std::to_string(ObjectIterations) + ", " +
           std::to_string(R.range(1, 99)) + ")";
  }
  Main.line(Sum + ";");
  Spec.Files.addFile("app/main.js", Main.str());
  if (Index % 4 == 0)
    addTestDriver(Spec, FirstPkg, "run(4, 1)");
  return Spec;
}

/// The corpus suite's pattern families and weights (BenchmarkSuite.cpp).
struct WeightedPattern {
  ProjectSpec (*Fn)(Rng &, unsigned);
  unsigned Weight;
};
const WeightedPattern SuitePatterns[] = {
    {makeExpressLike, 3},   {makeEventHub, 2},      {makePluginRegistry, 2},
    {makeOopLibrary, 2},    {makeDelegator, 1},     {makeEvalInit, 1},
    {makeDynamicLoader, 1}, {makeUtilityLib, 2},    {makeMiddlewareChain, 2},
};

/// Candidates generated per corpus project (see makeCorpusProject).
constexpr unsigned CorpusCandidates = 8;

/// Project \p Index of the corpus: the pattern family, size class and test
/// driver of the default suite's project \p Index, built by that family's
/// generator from \p Seed. The seed changes every name, count and constant
/// the generators draw, but not the suite's mix of families and sizes.
/// Within a family and size class the generators still vary the amount of
/// code, so of CorpusCandidates seeded candidates the one whose code size
/// is closest to the default project's is kept: the work per run then
/// stays comparable from seed to seed. On DefaultSeed the first candidate
/// is exactly buildBenchmarkSuite()'s project.
ProjectSpec makeCorpusProject(uint64_t Seed, size_t Index) {
  const uint64_t Golden = 0x9E3779B97F4A7C15ULL;
  Rng Shape(DefaultSeed + Index * Golden);
  unsigned TotalWeight = 0;
  for (const WeightedPattern &P : SuitePatterns)
    TotalWeight += P.Weight;
  unsigned Pick = unsigned(Shape.below(TotalWeight));
  const WeightedPattern *Family = SuitePatterns;
  while (Pick >= Family->Weight)
    Pick -= (Family++)->Weight;
  unsigned Size = unsigned(Shape.below(3));
  auto Generate = [&](uint64_t S) {
    Rng R(S + Index * Golden);
    R.next(); // The two draws above, so that DefaultSeed reproduces the
    R.next(); // suite exactly.
    return Family->Fn(R, Size);
  };
  double Want = double(Generate(DefaultSeed).codeBytes());
  ProjectSpec Spec;
  double Best = 0;
  for (unsigned J = 0; J != CorpusCandidates; ++J) {
    ProjectSpec Candidate = Generate(Seed ^ (J * 0xD1B54A32D192ED03ULL));
    double Distance = std::fabs(std::log(double(Candidate.codeBytes()) / Want));
    if (J == 0 || Distance < Best) {
      Best = Distance;
      Spec = std::move(Candidate);
    }
    if (Best == 0)
      break;
  }
  Spec.Name = Spec.Pattern + "-" + std::to_string(Index);
  if (Index % SuiteOptions().DynamicCGStride != 0)
    Spec.TestDriver.clear();
  return Spec;
}

} // namespace

bool perfbench::isWorkloadName(const std::string &Name) {
  return Name == "corpus" || Name == "loops" || Name == "objects";
}

Workload perfbench::makeWorkload(const std::string &Name, uint64_t Seed,
                                 Scale S) {
  Workload W;
  size_t Count = Name == "corpus" ? (S == Scale::Full ? 141 : 12)
                                  : (S == Scale::Full ? 32 : 3);
  // One project more than timed: the last one is the serve warm-up's.
  for (size_t I = 0; I <= Count; ++I) {
    ProjectSpec Spec;
    if (Name == "corpus") {
      Spec = makeCorpusProject(Seed, I);
    } else {
      Rng R(Seed * 0x2545F4914F6CDD1DULL + I * 0x9E3779B97F4A7C15ULL +
            (Name == "loops" ? 1 : 2));
      Spec = Name == "loops" ? makeLoopsProject(R, I)
                             : makeObjectsProject(R, I);
    }
    addEditLiteral(Spec);
    W.Projects.push_back(std::move(Spec));
  }
  W.WarmUp = std::move(W.Projects.back());
  W.Projects.pop_back();
  return W;
}

bool perfbench::isDefaultSuite(const std::vector<ProjectSpec> &Projects) {
  SuiteOptions Opts;
  Opts.Count = Projects.size();
  std::vector<ProjectSpec> Suite = buildBenchmarkSuite(Opts);
  for (size_t I = 0; I != Suite.size(); ++I) {
    ProjectSpec &Want = Suite[I];
    const ProjectSpec &Got = Projects[I];
    addEditLiteral(Want);
    if (Want.Name != Got.Name || Want.Pattern != Got.Pattern ||
        Want.TestDriver != Got.TestDriver ||
        Want.Files.allPaths() != Got.Files.allPaths())
      return false;
    for (const std::string &Path : Want.Files.allPaths())
      if (Want.Files.read(Path) != Got.Files.read(Path))
        return false;
  }
  return true;
}

void perfbench::setEditValue(ProjectSpec &Spec, uint64_t Value) {
  std::string Main = Spec.Files.read(Spec.MainModule);
  Main.replace(editOffset(Main), std::to_string(EditBase).size(),
               editDigits(Value));
  Spec.Files.addFile(Spec.MainModule, std::move(Main));
}

void perfbench::writeTree(const ProjectSpec &Spec, const std::string &Dir) {
  for (const std::string &Path : Spec.Files.allPaths()) {
    std::filesystem::path File = std::filesystem::path(Dir) / Path;
    std::filesystem::create_directories(File.parent_path());
    std::ofstream Out(File, std::ios::binary | std::ios::trunc);
    Out << Spec.Files.read(Path);
    if (!Out)
      throw std::runtime_error("cannot write " + File.string());
  }
}

void perfbench::writeEdit(const std::string &Dir, const ProjectSpec &Spec,
                          uint64_t Value) {
  std::string Digits = editDigits(Value);
  std::fstream F(std::filesystem::path(Dir) / Spec.MainModule,
                 std::ios::binary | std::ios::in | std::ios::out);
  F.seekp(std::streamoff(editOffset(Spec.Files.read(Spec.MainModule))));
  F.write(Digits.data(), std::streamsize(Digits.size()));
  if (!F)
    throw std::runtime_error("cannot edit the main module under " + Dir);
}
