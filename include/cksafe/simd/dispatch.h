// The scan-kernel level a binary reports. The MINIMIZE2 scans have one
// implementation, the scalar loops in core/minimize2.cc (DESIGN.md §11),
// so the level is always kScalar. This header stays only because the
// benchmark prints the level; it goes once the benchmark stops printing it.

#pragma once

namespace cksafe {

enum class SimdLevel : int {
  kScalar = 0,
};

/// Human-readable level name ("scalar").
inline const char* SimdLevelName(SimdLevel /*level*/) { return "scalar"; }

/// The level the MINIMIZE2 sweeps run at.
inline SimdLevel ActiveSimdLevel() { return SimdLevel::kScalar; }

}  // namespace cksafe
