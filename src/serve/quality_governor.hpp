// QualityGovernor: the serving-side policy of the adaptive quality ladder
// (render/quality.hpp). At issue time the dispatcher asks it for a rung;
// the governor maps (remaining deadline, current queue depth, per-rung EWMA
// cost model, priority class) to the LEAST degraded rung predicted to meet
// the deadline — full quality when unloaded, degrading only under pressure,
// so overload turns into bounded PSNR loss instead of rejections/expiries.
//
// Policy, in order:
//   1. Load floor. Queue occupancy (depth / capacity) at or above
//      load_floors[r] floors the rung at r. Batch-class requests are exempt
//      — nobody is waiting on them, so they keep full quality until a
//      deadline or the pressure window forces otherwise.
//   2. Pressure window. A full-queue admission calls NotePressure(): until
//      the dispatcher observes the queue back below the low-water mark,
//      every class is floored at pressure_floor — "degrade over reject":
//      the response to a full queue is cheaper work (which drains the queue
//      and frees seats) rather than only dropping the overflow.
//   3. Deadline fit. A request with a deadline escalates from the floor to
//      the first rung whose predicted cost fits the remaining budget times
//      deadline_headroom; if even the cheapest rung does not fit, the
//      cheapest is used (best effort — the dispatcher already shed anything
//      whose deadline has actually passed).
//
// Cost model: per batch-key, per-rung EWMAs of observed per-request wall
// time (the service's issue->complete span on its scheduling clock, divided
// by batch size). A key's first full-quality observation — the warmup
// renders every bench/service run starts with — calibrates the whole ladder
// through the static RungSpec::cost_scale priors; later observations refine
// each rung independently. Keys never observed fall back to a global
// cross-key EWMA, then to default_cost_ms.
//
// Determinism: Decide() is a pure function of its arguments, the option
// constants and the cost-model state. Under a ManualClock the observed
// issue->complete spans are virtual (0 unless the test advances time), and
// tests that pin exact rung sequences set freeze_costs and inject the model
// through SeedCost() — so a staged backlog replays the identical rung
// sequence at any worker count, exactly like the scheduling order it rides
// on.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_map>

#include "render/quality.hpp"

namespace spnerf {

struct QualityLadderOptions {
  /// Off (the default) = every request renders at rung 0 and the service
  /// behaves bit-identically to the pre-ladder service.
  bool enabled = false;
  /// Highest rung the governor may choose (degradation ceiling).
  int max_rung = static_cast<int>(kQualityRungCount) - 1;
  /// A rung fits a deadline when predicted cost <= remaining * headroom.
  double deadline_headroom = 0.8;
  /// Queue-occupancy thresholds (depth / capacity) flooring the rung, index
  /// by rung; entry 0 is unused. Batch-class requests ignore these.
  std::array<double, kQualityRungCount> load_floors{0.0, 0.5, 0.75, 0.9};
  /// Rung floor while the pressure window is open (every class).
  int pressure_floor = 2;
  /// The pressure window closes when the dispatcher observes
  /// depth <= pressure_low_water * capacity.
  double pressure_low_water = 0.5;
  /// Rung-0 cost estimate before any observation, scaled per rung by
  /// RungSpec::cost_scale.
  double default_cost_ms = 50.0;
  /// EWMA smoothing factor for online cost refinement.
  double ewma_alpha = 0.2;
  /// Disables Observe() (SeedCost still writes): determinism-test mode —
  /// the cost model is exactly what the test injected, never perturbed by
  /// measured wall time.
  bool freeze_costs = false;
};

class QualityGovernor {
 public:
  QualityGovernor(QualityLadderOptions options, std::size_t queue_capacity)
      : options_(options), capacity_(queue_capacity) {}

  [[nodiscard]] bool Enabled() const { return options_.enabled; }
  [[nodiscard]] const QualityLadderOptions& Options() const {
    return options_;
  }

  /// Issue-time rung decision. `priority_class` is the request's
  /// RequestPriority as an index (0 = batch); `remaining_ms` is deadline
  /// minus now on the service's scheduling clock (ignored unless
  /// `has_deadline`); `queue_depth` is the admitted-not-dispatched count at
  /// decision time. Pure in its inputs + option constants + cost model.
  [[nodiscard]] QualityRung Decide(std::size_t priority_class,
                                   bool has_deadline, double remaining_ms,
                                   std::size_t queue_depth,
                                   const std::string& key) const;

  /// Predicted per-request cost of serving `key` at `rung` (ms).
  [[nodiscard]] double PredictMs(const std::string& key,
                                 QualityRung rung) const;

  /// Explicit calibration: pins `key`'s rung-0 cost (tests inject frozen
  /// models through this; the serving path calibrates via Observe).
  void SeedCost(const std::string& key, double rung0_ms);

  /// Online refinement from one observed per-request wall time. No-op when
  /// freeze_costs is set.
  void Observe(const std::string& key, QualityRung rung, double ms);

  /// Admission hit a full queue: opens the degrade-over-reject pressure
  /// window.
  void NotePressure();
  /// Dispatcher-observed queue depth; closes the pressure window at or
  /// below the low-water mark.
  void NoteDepth(std::size_t depth);
  [[nodiscard]] bool UnderPressure() const {
    return pressure_.load(std::memory_order_relaxed);
  }

 private:
  struct Ewma {
    double value = 0.0;
    bool seeded = false;
  };
  using Ladder = std::array<Ewma, kQualityRungCount>;

  /// Lookup order: the key's own rung EWMA, the key's rung-0 EWMA scaled by
  /// the static priors, the global cross-key rung EWMA, the default. Caller
  /// must hold mutex_.
  [[nodiscard]] double PredictLocked(const Ladder* ladder,
                                     QualityRung rung) const;

  QualityLadderOptions options_;
  std::size_t capacity_;
  std::atomic<bool> pressure_{false};

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Ladder> costs_;  // guarded by mutex_
  Ladder global_;                                  // guarded by mutex_
};

}  // namespace spnerf
