//===- Calibrate.h - A fixed reference kernel -------------------*- C++ -*-===//
///
/// \file
/// A fixed piece of CPU work that shares none of the product's code: an
/// expression tree walk, hash-map inserts and lookups, and a sort. It does
/// the kinds of work the analyser does (pointer chasing, branches, hashing,
/// allocation), so its time tracks how fast the machine runs the benchmark
/// at that moment, and no change to the product can move it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

namespace perfbench {

/// Runs the reference kernel once. \returns its wall time in ms.
double referenceKernelMs();

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
