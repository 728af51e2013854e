// CNFET CNT-count failure model (Sec 2.1, eq. 2.2).
//
// A CNFET of width W contains N(W) CNTs before m-CNT removal; each CNT
// independently "fails" (is metallic, or is semiconducting but inadvertently
// removed) with probability p_f. The device suffers a CNT count failure when
// every CNT fails:
//
//   p_F(W) = Σ_N  p_f^N · Prob{N(W) = N}  =  G_{N(W)}(p_f)
//
// i.e. the count distribution's probability generating function at p_f,
// evaluated through the truncated node-major kernel of cnt/pf_kernel.h.
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <span>
#include <utility>
#include <vector>

#include "cnt/count_distribution.h"
#include "cnt/growth.h"
#include "cnt/pitch_model.h"
#include "cnt/process.h"
#include "numeric/interp.h"
#include "rng/engine.h"
#include "stats/accumulator.h"

namespace cny::device {

class FailureModel {
 public:
  FailureModel(cnt::PitchModel pitch, cnt::ProcessParams process);

  // The memo cache and interpolant are internally synchronised, so a
  // member-wise default copy is not available. Copies share the immutable
  // interpolant and its knot slots (a knot one of them fills is filled for
  // all: they sit at one corner, so the values are the same bits) and take
  // a snapshot of the memo.
  // Assignment is deleted on purpose: pitch/process are immutable after
  // construction, which is what makes their lock-free reads on the hot
  // p_f path safe under concurrency.
  FailureModel(const FailureModel& other);
  FailureModel& operator=(const FailureModel&) = delete;

  [[nodiscard]] const cnt::PitchModel& pitch() const { return pitch_; }
  [[nodiscard]] const cnt::ProcessParams& process() const { return process_; }
  [[nodiscard]] double p_fail_per_cnt() const { return process_.p_fail(); }

  /// Analytic p_F(W), eq. (2.2). Results are memoised per width because the
  /// solvers re-query the same widths. The read path is lock-light so
  /// concurrent solver threads never serialise: when interpolation is
  /// enabled and `width` falls inside its range, an atomically loaded
  /// interpolant snapshot answers with no lock at all once the knots of
  /// its segment are filled; otherwise the memo is consulted under a
  /// shared (reader) lock. `n_threads` is passed to the exact kernel on a
  /// memo miss (see p_f_exact), and so to the knot fills of a first read.
  [[nodiscard]] double p_f(double width, unsigned n_threads = 1) const;

  /// Always the analytic evaluation (the certified-truncation PGF kernel,
  /// exact to ~1e-12 relative), bypassing any enabled interpolant. Memoised
  /// and thread-safe. A memo miss shards the kernel's node loops over
  /// `n_threads` (0 = hardware concurrency); the value is bit-identical
  /// for every thread count.
  [[nodiscard]] double p_f_exact(double width, unsigned n_threads = 1) const;

  /// Batched p_f(): one result per width, each bit-identical to the
  /// corresponding scalar p_f(width) call. Interpolant-covered widths read
  /// the table (knot fills run on the table's `n_threads`, see
  /// enable_interpolation); the remaining exact evaluations of one call
  /// share one memo probe, run cnt::pf_truncated per miss, and land in the
  /// memo under one lock.
  [[nodiscard]] std::vector<double> p_f_batch(
      std::span<const double> widths) const;

  /// Batched p_f_exact(): the same batched evaluation with the
  /// interpolant bypassed for every width.
  [[nodiscard]] std::vector<double> p_f_exact_batch(
      std::span<const double> widths) const;

  /// Installs (first call) a monotone-cubic interpolant of log p_F over
  /// `knots` geometrically spaced knots in [w_lo, w_hi] and routes
  /// subsequent in-range p_f() queries through it. Installing evaluates
  /// nothing: each knot is filled with one exact evaluation on first use,
  /// and a query fills only the knots its segment reads (at most six), so
  /// a sweep pays for the part of the table its solves visit. Every value
  /// is bit-identical to a table built from all knots up front
  /// (numeric::LazyMonotoneCubic). Geometric spacing concentrates knots at
  /// small W, where the exact evaluation is cheap and log p_F actually
  /// curves. `n_threads` (0 = hardware concurrency) shards the kernel of
  /// the knot fills p_f_batch makes. Thread-safe and idempotent: later
  /// calls with a range already covered are no-ops, and a different range
  /// replaces the table.
  void enable_interpolation(double w_lo, double w_hi, std::size_t knots = 65,
                            unsigned n_threads = 1) const;

  /// The installed interpolant's knot abscissae, ascending (empty when none
  /// is installed).
  [[nodiscard]] std::vector<double> interpolation_knots() const;

  /// Whether an interpolant is installed (and, if so, covering `width`).
  [[nodiscard]] bool interpolation_covers(double width) const;

  /// Closed form for the Poisson (CV = 1) pitch special case:
  ///   p_F = exp(-W/μ_S · (1 - p_f)).
  /// Throws unless the pitch model is Poisson; used for validation.
  [[nodiscard]] double p_f_poisson_closed_form(double width) const;

  /// Monte Carlo estimate of p_F(W): grows tube populations over many
  /// device instances and counts devices with zero functional tubes.
  /// `margin` (nm, >= 0) extends the grown band above and below the window
  /// so stationarity is honest even though the renewal starts at the band
  /// edge (the equilibrium first-gap draw already guarantees it; a nonzero
  /// margin makes the check independent of that guarantee). Practical only
  /// when p_F is not too rare (validation at small W / large p_f).
  [[nodiscard]] stats::Interval p_f_monte_carlo(double width,
                                                std::size_t n_devices,
                                                rng::Xoshiro256& rng,
                                                double margin = 0.0) const;

  /// Expected CNT count in a device of width W (= W/μ_S for the stationary
  /// process).
  [[nodiscard]] double mean_count(double width) const;

 private:
  struct LogPfInterp {
    LogPfInterp(double lo, double hi, unsigned threads,
                std::vector<double> knots)
        : w_lo(lo), w_hi(hi), n_threads(threads), log_pf(std::move(knots)) {}

    double w_lo;
    double w_hi;
    unsigned n_threads;  ///< kernel threads of p_f_batch's knot fills
    numeric::LazyMonotoneCubic log_pf;
  };

  [[nodiscard]] std::shared_ptr<const LogPfInterp> interpolant() const;
  /// p_F(width) read off `interp` (width inside its range), filling the
  /// knots the read needs with exact evaluations on `n_threads`.
  [[nodiscard]] double interpolate(const LogPfInterp& interp, double width,
                                   unsigned n_threads) const;

  cnt::PitchModel pitch_;
  cnt::ProcessParams process_;
  /// Interpolant snapshot, swapped in atomically so the hottest read path
  /// (in-range p_f under the batch flows) takes no lock whatsoever.
  /// `has_interp_` fronts it: a relaxed bool load keeps the no-interpolant
  /// p_f() fast path from paying the shared_ptr atomic (which libstdc++
  /// backs with a spinlock pool) on every memoised query.
  mutable std::atomic<bool> has_interp_{false};
  mutable std::atomic<std::shared_ptr<const LogPfInterp>> interp_;
  /// Exact-value memo: widths sorted for binary search, readers under a
  /// shared lock so concurrent cache hits proceed in parallel.
  mutable std::shared_mutex memo_mutex_;
  mutable std::vector<std::pair<double, double>> memo_;
};

}  // namespace cny::device
