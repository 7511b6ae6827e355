#include "cksafe/simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace cksafe {

// Backend registration: each TU returns its kernel table, or nullptr when
// the backend is not compiled into this binary (wrong arch, or the AVX2
// path disabled via CKSAFE_ENABLE_AVX2=OFF / a -mno-avx2 toolchain).
const ScanKernels* GetScalarScanKernels();
const ScanKernels* GetAvx2ScanKernels();

namespace {

// -1 = no override; otherwise a SimdLevel. Relaxed is enough: the tests
// that flip it run sweeps on the flipping thread.
std::atomic<int> g_test_override{-1};

bool CpuSupports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const ScanKernels* CompiledKernels(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return GetScalarScanKernels();
    case SimdLevel::kAvx2:
      return GetAvx2ScanKernels();
  }
  return nullptr;
}

SimdLevel Detect() {
  return SimdLevelUsable(SimdLevel::kAvx2) ? SimdLevel::kAvx2
                                           : SimdLevel::kScalar;
}

SimdLevel ResolveEnv(SimdLevel detected) {
  const char* env = std::getenv("CKSAFE_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return detected;
  }
  const SimdLevel requested = std::strcmp(env, "avx2") == 0
                                  ? SimdLevel::kAvx2
                                  : SimdLevel::kScalar;
  // Unknown strings and unusable requests degrade to scalar rather than
  // abort: the env override is an operator knob, not an API.
  return SimdLevelUsable(requested) ? requested : SimdLevel::kScalar;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool SimdLevelUsable(SimdLevel level) {
  return CompiledKernels(level) != nullptr && CpuSupports(level);
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected = Detect();
  return detected;
}

SimdLevel ActiveSimdLevel() {
  const int override_level = g_test_override.load(std::memory_order_relaxed);
  if (override_level >= 0) {
    const auto level = static_cast<SimdLevel>(override_level);
    return SimdLevelUsable(level) ? level : SimdLevel::kScalar;
  }
  static const SimdLevel resolved = ResolveEnv(DetectedSimdLevel());
  return resolved;
}

const ScanKernels& ScanKernelsFor(SimdLevel level) {
  const ScanKernels* kernels =
      SimdLevelUsable(level) ? CompiledKernels(level) : nullptr;
  if (kernels == nullptr) kernels = GetScalarScanKernels();
  return *kernels;
}

const ScanKernels& ActiveScanKernels() {
  return ScanKernelsFor(ActiveSimdLevel());
}

void SetSimdLevelForTest(SimdLevel level) {
  g_test_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ClearSimdLevelForTest() {
  g_test_override.store(-1, std::memory_order_relaxed);
}

}  // namespace cksafe
