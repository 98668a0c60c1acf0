// PredictionService — the facade over the layered, sharded serving stack.
//
// Two ways in:
//
//   submit(PredictRequest) -> std::future<PredictResult>   (queued)
//   serve(PredictRequest)  -> PredictResult                (caller-runs)
//
// submit() is for open-loop callers with many requests in flight: the
// request crosses to a shard worker through the admission ring, and
// admission capacity, queue-full shedding, coalescing, pause() and
// drain() apply to it. serve() is for a caller that would only block on
// the future anyway (a dserve node answering one wire frame): it pins the
// epoch the same way and runs the same evaluation on the calling thread,
// so its concurrency is bounded by its callers, it never waits on a
// worker, and it sheds only when the service has stopped. Both return
// the same bits for the same request, and both evaluate a request
// exactly once, on its home shard.
//
// Behind them the stack is four layers (DESIGN.md §13):
//
//   admission  — per-shard lock-free bounded queue with exact,
//                per-reason shedding                    (admission.hpp)
//   routing    — consistent-hash ShardRouter sending every request for
//                one model structure to one shard        (router.hpp)
//   execution  — S PredictionShards, each a complete engine: worker
//                pool, program cache, coalescing, epoch pin,
//                observation FIFO                         (shard.hpp)
//   frontend   — optional wire codec for remote clients     (wire.hpp)
//
// The facade itself only registers models (ModelTable, shared by all
// shards), stamps request ids (shard index in the low kShardBits so
// report_observation routes back to the owning shard), fans epoch
// publishes out to every shard, owns the learned-predictor arbiter its
// shards share, and aggregates metrics (service-wide rolled-up registry
// plus per-shard child registries).
//
// Determinism: routing is a pure function of the model's structure key
// and each shard processes its slice exactly as the monolith processed
// the whole stream, so for a fixed request set per-request results are
// bit-exact at ANY shard count (shard_test.cpp pins this).
//
// Error contract (unchanged): a request that cannot be served — unknown
// model id, wrong binding count, resource missing from the epoch, a
// worker-side exception of any kind — resolves with a structured
// PredictResult (status kError and a message); neither workers nor
// serve() callers see the exception. Rejection (queue full / service
// stopped) resolves with status kRejected, counted per reason.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "serve/epoch.hpp"
#include "serve/metrics.hpp"
#include "serve/program_cache.hpp"
#include "serve/request.hpp"
#include "serve/router.hpp"
#include "serve/shard.hpp"
#include "support/clock.hpp"

namespace sspred::serve {

class PredictionService {
 public:
  /// Low bits of every request id carry the owning shard's index.
  static constexpr std::size_t kShardBits = 8;
  static constexpr std::size_t kMaxShards = std::size_t{1} << kShardBits;

  explicit PredictionService(ServiceOptions options = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Registers (or replaces) a model id. Ids are aliases: two ids with
  /// structurally identical specs share one cached program.
  void register_model(const std::string& id, ModelSpec spec);
  [[nodiscard]] std::vector<std::string> model_ids() const;

  /// Admits a request. Always returns a future that will be resolved —
  /// with kRejected immediately when the routed shard's queue is full or
  /// the service has stopped.
  [[nodiscard]] std::future<PredictResult> submit(PredictRequest request);

  /// Serves a request on the calling thread (see the file comment):
  /// routes, stamps the id and pins the epoch as submit() does, then
  /// evaluates it here instead of on a worker.
  /// Bit-exact against submit().get(); answers on a paused service too.
  [[nodiscard]] PredictResult serve(PredictRequest request);

  /// Installs `epoch` as the bindings epoch for subsequently submitted
  /// requests on EVERY shard; in-flight requests keep the epoch they
  /// were admitted with (each pins exactly one epoch snapshot).
  void publish_epoch(EpochPtr epoch);
  /// The last published epoch (shard 0's: every shard pins the same).
  [[nodiscard]] EpochPtr current_epoch() const;

  /// Pauses/resumes worker dequeueing on all shards (submissions still
  /// queue; in-flight work finishes). Used by tests to stage states.
  void pause();
  void resume();

  /// Blocks until every shard's queues are empty and workers idle.
  void drain();

  /// Closes the predict→observe loop: reports that the work predicted by
  /// the (completed, kOk) request `request_id` actually took
  /// `observed_seconds`, feeding the configured accuracy ledger on the
  /// shard that served the request. Returns false — and counts the
  /// report as unmatched — when no ledger is configured, the id is
  /// unknown, already reported, or was evicted.
  bool report_observation(std::uint64_t request_id, double observed_seconds);

  /// Service-wide registry: rolled-up totals under the monolith's metric
  /// names, plus per-shard "shard<k>/..." children when shards > 1 and a
  /// "learn/..." subtree when learning is enabled.
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }

  // --- Learning surface -------------------------------------------------

  /// The learned-predictor bank / arbiter serving this service; null when
  /// learning is disabled. Shared across every shard, so arbitration is
  /// per model id service-wide whatever the shard count.
  [[nodiscard]] learn::PredictorBank* bank() const noexcept {
    return options_.bank.get();
  }
  [[nodiscard]] learn::Arbiter* arbiter() const noexcept {
    return arbiter_.get();
  }
  /// The learn/ metrics subtree (also attached under metrics() when
  /// learning is enabled).
  [[nodiscard]] MetricsRegistry& learn_metrics() noexcept {
    return learn_metrics_;
  }

  // --- Sharding surface -------------------------------------------------

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  /// Shard 0's program cache (the whole service's cache when shards==1,
  /// preserving the monolithic accessor).
  [[nodiscard]] ProgramCache& cache() noexcept { return cache(0); }
  [[nodiscard]] ProgramCache& cache(std::size_t shard);
  [[nodiscard]] MetricsRegistry& shard_metrics(std::size_t shard);
  /// Shard the CURRENT registration of `model_id` routes to (unknown ids
  /// route by id text so they still shed/err deterministically).
  [[nodiscard]] std::size_t shard_of(const std::string& model_id) const;
  /// Owning shard encoded in a request id.
  [[nodiscard]] static constexpr std::size_t shard_of_id(
      std::uint64_t request_id) noexcept {
    return request_id & (kMaxShards - 1);
  }

 private:
  /// Stamps `job`'s registration snapshot and enqueue time; returns the
  /// shard its request's structure key routes to.
  std::size_t route(PredictionShard::Job& job) const;
  /// A fresh request id owned by `shard`.
  std::uint64_t next_id(std::size_t shard) noexcept;

  ServiceOptions options_;
  std::shared_ptr<support::Clock> clock_;
  MetricsRegistry metrics_;
  MetricsRegistry learn_metrics_;  ///< learn/ subtree (shards dual-write)
  ModelTable models_;
  ShardRouter router_;
  Counter& epochs_published_;
  Counter& observations_unmatched_;
  /// Shared by every shard; null when learning is off.
  std::unique_ptr<learn::Arbiter> arbiter_;
  std::vector<std::unique_ptr<PredictionShard>> shards_;

  std::atomic<std::uint64_t> next_seq_{1};
};

}  // namespace sspred::serve
