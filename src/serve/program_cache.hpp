// Compiled-program cache for the prediction service.
//
// Compiling a structural model (authoring the Expr tree + lowering it to
// the flat IR) is orders of magnitude more expensive than evaluating the
// compiled program once, so a service that recompiles per request wastes
// almost its whole budget on compilation. The cache keys compiled models
// by *structure* — two registered model ids that describe the same
// (application, platform, problem, options) tuple share one compiled
// program — and single-flights first compilation: when N threads race to
// compile a cold key, exactly one compiles and the rest block on the
// resulting entry.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cluster/platform.hpp"
#include "predict/sor_model.hpp"
#include "sor/distributed.hpp"

namespace sspred::serve {

/// Everything that determines a compiled program's structure. The
/// platform's load *processes* are deliberately excluded from the key:
/// loads are runtime bindings, not structure.
struct ModelSpec {
  enum class App { kSor, kBlockSor, kJacobi };
  App app = App::kSor;
  cluster::PlatformSpec platform;
  sor::SorConfig config;           ///< n/iterations(/rows_per_rank) used
  std::size_t pr = 1, pc = 1;      ///< process grid (kBlockSor only)
  predict::SorModelOptions options;

  /// Canonical fingerprint of the structural inputs; equal keys compile
  /// to interchangeable programs (same nodes, same slot table).
  [[nodiscard]] std::string structure_key() const;
};

/// A compiled structural model for one spec. Immutable after
/// construction; concurrent evaluation is safe with per-thread
/// SlotEnvironment + EvalWorkspace (see model/ir.hpp).
class CompiledModel {
 public:
  explicit CompiledModel(const ModelSpec& spec);

  [[nodiscard]] const ModelSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const model::ir::Program& program() const noexcept {
    return model_.program();
  }

  [[nodiscard]] std::size_t hosts() const noexcept { return model_.hosts(); }
  /// Slot id of host p's load parameter.
  [[nodiscard]] std::uint32_t load_slot(std::size_t p) const {
    return model_.load_slot(p);
  }
  [[nodiscard]] bool uses_bandwidth() const noexcept {
    return model_.uses_bandwidth();
  }
  /// Slot id of the bandwidth-availability parameter; requires
  /// uses_bandwidth().
  [[nodiscard]] std::uint32_t bwavail_slot() const {
    return model_.bwavail_slot();
  }

 private:
  ModelSpec spec_;
  predict::StructuralModel model_;
};

using CompiledModelPtr = std::shared_ptr<const CompiledModel>;

/// Structure-keyed cache of compiled models with single-flight misses.
class ProgramCache {
 public:
  struct Lookup {
    CompiledModelPtr model;
    bool hit = false;  ///< true when no compilation happened on this call's key
  };

  /// Returns the cached model for spec's structure, compiling it (once,
  /// however many threads race here) on a cold key. A compilation failure
  /// is cached and rethrown to every waiter — the spec is structurally
  /// bad, retrying cannot help.
  [[nodiscard]] Lookup get_or_compile(const ModelSpec& spec);

  /// Same, with spec's structure key already serialized (the service
  /// fingerprints a model once at registration and passes the stamped key
  /// here, so the hot path never re-serializes the spec — per-request key
  /// serialization used to be the dominant service-side cost). `key` MUST
  /// equal spec.structure_key().
  [[nodiscard]] Lookup get_or_compile(const ModelSpec& spec,
                                      const std::string& key);

  /// Number of compilations actually performed (== distinct keys seen,
  /// counting failed ones).
  [[nodiscard]] std::uint64_t compile_count() const noexcept {
    return compiles_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const;

  void clear();

 private:
  /// One cache slot; created on first lookup of a key, filled by the
  /// single compiling thread, waited on by everyone else.
  struct Slot {
    std::mutex m;
    std::condition_variable cv;
    CompiledModelPtr model;   ///< set on success
    bool done = false;
    std::string error;        ///< set instead when compilation threw
  };

  mutable std::mutex mutex_;  ///< guards slots_ (not the slots themselves)
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> compiles_{0};
};

}  // namespace sspred::serve
