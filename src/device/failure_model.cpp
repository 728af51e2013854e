#include "device/failure_model.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "cnt/pf_kernel.h"
#include "obs/metrics.h"
#include "util/contracts.h"

namespace cny::device {

namespace {

/// Sorted-vector memo lookup: iterator to the entry for `width`, or the
/// insertion point when absent.
auto memo_find(std::vector<std::pair<double, double>>& memo, double width) {
  return std::lower_bound(
      memo.begin(), memo.end(), width,
      [](const std::pair<double, double>& e, double w) { return e.first < w; });
}

/// Interpolant work (obs::Registry::global()): knots filled with an exact
/// evaluation, and tables whose locality certificate failed somewhere, so
/// that they took whole-table tangents.
obs::Counter& knots_filled_counter() {
  static auto& counter =
      obs::Registry::global().counter("device.interp_knots_filled");
  return counter;
}

obs::Counter& fallbacks_counter() {
  static auto& counter =
      obs::Registry::global().counter("device.interp_fallbacks");
  return counter;
}

}  // namespace

FailureModel::FailureModel(cnt::PitchModel pitch, cnt::ProcessParams process)
    : pitch_(pitch), process_(process) {
  process_.validate();
}

FailureModel::FailureModel(const FailureModel& other)
    : pitch_(other.pitch_), process_(other.process_) {
  // pitch_/process_ are immutable after construction (assignment is
  // deleted), so reading them above without synchronisation is safe; the
  // mutable caches are copied through their own synchronisation.
  auto interp = other.interp_.load(std::memory_order_acquire);
  const bool has = interp != nullptr;
  interp_.store(std::move(interp), std::memory_order_release);
  has_interp_.store(has, std::memory_order_release);
  const std::shared_lock<std::shared_mutex> lock(other.memo_mutex_);
  memo_ = other.memo_;
}

std::shared_ptr<const FailureModel::LogPfInterp> FailureModel::interpolant()
    const {
  return interp_.load(std::memory_order_acquire);
}

double FailureModel::interpolate(const LogPfInterp& interp, double width,
                                 unsigned n_threads) const {
  numeric::LazyMonotoneCubic::Filled filled;
  const double log_pf = interp.log_pf(
      width,
      [this, n_threads](double knot) {
        return std::log(p_f_exact(knot, n_threads));
      },
      &filled);
  if (filled.knots != 0) knots_filled_counter().add(filled.knots);
  if (filled.fallback) fallbacks_counter().add();
  return std::exp(log_pf);
}

double FailureModel::p_f(double width, unsigned n_threads) const {
  CNY_EXPECT(width >= 0.0);
  // Hottest read path in the solvers: a relaxed flag probe, then (only
  // with a table installed) one atomic shared_ptr load — no lock either
  // way. Concurrent enable_interpolation() publishes a whole table before
  // raising the flag, so a snapshot is always safe to read (its knot slots
  // publish themselves); racing readers that miss the flag simply take
  // the exact path.
  if (has_interp_.load(std::memory_order_relaxed)) {
    if (const auto interp = interp_.load(std::memory_order_acquire);
        interp && width >= interp->w_lo && width <= interp->w_hi) {
      return interpolate(*interp, width, n_threads);
    }
  }
  return p_f_exact(width, n_threads);
}

double FailureModel::p_f_exact(double width, unsigned n_threads) const {
  CNY_EXPECT(width >= 0.0);
  {
    const std::shared_lock<std::shared_mutex> lock(memo_mutex_);
    if (const auto it = memo_find(memo_, width);
        it != memo_.end() && it->first == width) {
      return it->second;
    }
  }
  // Evaluate outside any lock: p_F is a pure function, so concurrent
  // duplicate work is merely wasted effort, never an inconsistency.
  const double value =
      cnt::pf_truncated(pitch_, width, process_.p_fail(), cnt::kPfRelTol,
                        n_threads)
          .value;
  const std::unique_lock<std::shared_mutex> lock(memo_mutex_);
  if (const auto it = memo_find(memo_, width);
      it == memo_.end() || it->first != width) {
    memo_.insert(it, {width, value});
  }
  return value;
}

std::vector<double> FailureModel::p_f_exact_batch(
    std::span<const double> widths) const {
  std::vector<double> out(widths.size());
  // Memo probe for the whole batch under one shared lock; the misses are
  // evaluated outside it with the same kernel call as p_f_exact, so a
  // width computes to the same bytes whichever call pattern filled the
  // memo first, and land in the memo under one lock.
  std::vector<std::size_t> miss;
  {
    const std::shared_lock<std::shared_mutex> lock(memo_mutex_);
    for (std::size_t i = 0; i < widths.size(); ++i) {
      CNY_EXPECT(widths[i] >= 0.0);
      if (const auto it = memo_find(memo_, widths[i]);
          it != memo_.end() && it->first == widths[i]) {
        out[i] = it->second;
      } else {
        miss.push_back(i);
      }
    }
  }
  if (miss.empty()) return out;
  for (const std::size_t i : miss) {
    out[i] = cnt::pf_truncated(pitch_, widths[i], process_.p_fail()).value;
  }
  const std::unique_lock<std::shared_mutex> lock(memo_mutex_);
  for (const std::size_t i : miss) {
    if (const auto it = memo_find(memo_, widths[i]);
        it == memo_.end() || it->first != widths[i]) {
      memo_.insert(it, {widths[i], out[i]});
    }
  }
  return out;
}

std::vector<double> FailureModel::p_f_batch(
    std::span<const double> widths) const {
  // Split by interpolant coverage exactly as per-width p_f() would, so
  // each output is bit-identical to the scalar call.
  std::shared_ptr<const LogPfInterp> interp;
  if (has_interp_.load(std::memory_order_relaxed)) {
    interp = interp_.load(std::memory_order_acquire);
  }
  std::vector<double> out(widths.size());
  std::vector<std::size_t> exact_idx;
  std::vector<double> exact_w;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    CNY_EXPECT(widths[i] >= 0.0);
    if (interp && widths[i] >= interp->w_lo && widths[i] <= interp->w_hi) {
      out[i] = interpolate(*interp, widths[i], interp->n_threads);
    } else {
      exact_idx.push_back(i);
      exact_w.push_back(widths[i]);
    }
  }
  if (!exact_idx.empty()) {
    const auto exact = p_f_exact_batch(exact_w);
    for (std::size_t j = 0; j < exact_idx.size(); ++j) {
      out[exact_idx[j]] = exact[j];
    }
  }
  return out;
}

void FailureModel::enable_interpolation(double w_lo, double w_hi,
                                        std::size_t knots,
                                        unsigned n_threads) const {
  CNY_EXPECT(w_lo > 0.0 && w_hi > w_lo);
  CNY_EXPECT(knots >= 4);
  if (const auto cur = interp_.load(std::memory_order_acquire);
      cur && cur->w_lo <= w_lo && cur->w_hi >= w_hi) {
    return;
  }
  // Geometric knot spacing: the exact evaluation cost grows with W (the
  // truncated kernel still walks O(p_f·W/μ_S) terms), while log p_F(W) is
  // nearly linear at large W (Fig 2.1) — so spend the knots where they are
  // cheap AND where the curvature lives.
  std::vector<double> xs(knots);
  const double ratio = w_hi / w_lo;
  for (std::size_t i = 0; i < knots; ++i) {
    xs[i] = w_lo * std::pow(ratio, static_cast<double>(i) /
                                       static_cast<double>(knots - 1));
  }
  xs.back() = w_hi;  // guard against pow() rounding shrinking the range
  // Nothing is evaluated here: the first reads fill the knots they need.
  auto built =
      std::make_shared<const LogPfInterp>(w_lo, w_hi, n_threads, std::move(xs));
  // If a racing builder already installed a table covering this request,
  // keep it; otherwise publish ours so the requested range is served.
  // (One table at a time: a later call for a different range replaces it.)
  auto cur = interp_.load(std::memory_order_acquire);
  while (!(cur && cur->w_lo <= w_lo && cur->w_hi >= w_hi)) {
    if (interp_.compare_exchange_weak(cur, built, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      break;
    }
  }
  has_interp_.store(true, std::memory_order_release);
}

std::vector<double> FailureModel::interpolation_knots() const {
  const auto interp = interpolant();
  return interp ? interp->log_pf.knots() : std::vector<double>{};
}

bool FailureModel::interpolation_covers(double width) const {
  const auto interp = interpolant();
  return interp && width >= interp->w_lo && width <= interp->w_hi;
}

double FailureModel::p_f_poisson_closed_form(double width) const {
  CNY_EXPECT(width >= 0.0);
  CNY_EXPECT_MSG(pitch_.is_poisson(),
                 "closed form only valid for CV = 1 (Poisson) pitch");
  return std::exp(-width * pitch_.density() * (1.0 - process_.p_fail()));
}

stats::Interval FailureModel::p_f_monte_carlo(double width,
                                              std::size_t n_devices,
                                              rng::Xoshiro256& rng,
                                              double margin) const {
  CNY_EXPECT(width > 0.0);
  CNY_EXPECT(n_devices >= 1);
  CNY_EXPECT(margin >= 0.0);
  std::size_t failures = 0;
  const cnt::DirectionalGrowth growth(pitch_, process_, /*cnt_length=*/1.0e6);
  for (std::size_t i = 0; i < n_devices; ++i) {
    const auto ys = growth.functional_positions(rng, -margin, width + margin);
    bool any = false;
    for (double y : ys) {
      if (y >= 0.0 && y < width) {
        any = true;
        break;
      }
    }
    if (!any) ++failures;
  }
  return stats::wilson_ci(failures, n_devices);
}

double FailureModel::mean_count(double width) const {
  CNY_EXPECT(width >= 0.0);
  return width * pitch_.density();
}

}  // namespace cny::device
