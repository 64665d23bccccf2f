//===- Workloads.h - Seeded benchmark inputs --------------------*- C++ -*-===//
///
/// \file
/// The benchmark's three workloads, each generated from a seed:
///
///  - corpus:  the paper-shaped 141-project suite (buildBenchmarkSuite);
///             run-once initialisation code where the static analyses
///             dominate;
///  - loops:   multi-component projects whose library components each run
///             an arithmetic or switch-dispatch loop kernel (forced
///             execution dominates, no property traffic);
///  - objects: single-component projects whose libraries run constructor
///             and prototype-method loops over monomorphic and polymorphic
///             receivers (forced execution through property lookup).
///
/// Every generated main module ends with one fixed-width numeric literal
/// that the edit stream rewrites in place, so an edit never changes the
/// length of the file.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "corpus/Project.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Full is the measured size; Tiny keeps the benchmark's own tests fast.
enum class Scale { Full, Tiny };

struct Workload {
  /// The projects every timed stream runs over, in a fixed order.
  std::vector<jsai::ProjectSpec> Projects;
  /// One more project of the same kind for the untimed serve warm-up.
  jsai::ProjectSpec WarmUp;
};

/// The seed used when none is given; also the corpus suite's own default.
constexpr uint64_t DefaultSeed = 20240624;

/// True for "corpus", "loops" and "objects".
bool isWorkloadName(const std::string &Name);

/// Generates workload \p Name from \p Seed. Deterministic in its arguments.
Workload makeWorkload(const std::string &Name, uint64_t Seed, Scale S);

/// True when \p Projects are exactly buildBenchmarkSuite()'s first
/// projects, each with the edit literal added: on DefaultSeed the corpus
/// workload must be the product's own suite.
bool isDefaultSuite(const std::vector<jsai::ProjectSpec> &Projects);

/// Edit values are EditBase + n, always printed with the same width.
constexpr uint64_t EditBase = 1000000;

/// Rewrites the edit literal of \p Spec's main module to \p Value.
void setEditValue(jsai::ProjectSpec &Spec, uint64_t Value);

/// Writes every file of \p Spec under \p Dir (which is created).
void writeTree(const jsai::ProjectSpec &Spec, const std::string &Dir);

/// Rewrites the edit literal of the main module of the tree at \p Dir to
/// \p Value in place: only the literal's digits are written.
void writeEdit(const std::string &Dir, const jsai::ProjectSpec &Spec,
               uint64_t Value);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
