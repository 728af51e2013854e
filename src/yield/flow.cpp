#include "yield/flow.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "exec/parallel_mc.h"
#include "layout/aligned_active.h"
#include "layout/row_placement.h"
#include "power/penalty.h"
#include "rng/engine.h"
#include "scenario/engine.h"
#include "util/contracts.h"
#include "util/strings.h"
#include "yield/empty_window.h"
#include "yield/row_model.h"

namespace cny::yield {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::Uncorrelated: return "uncorrelated";
    case Strategy::DirectionalOnly: return "directional only";
    case Strategy::AlignedOneRow: return "aligned-active (1 row)";
    case Strategy::AlignedTwoRows: return "aligned-active (2 rows)";
  }
  return "?";
}

const StrategyResult& FlowResult::get(Strategy s) const {
  for (const auto& r : strategies) {
    if (r.strategy == s) return r;
  }
  CNY_EXPECT_MSG(false, "strategy not present in flow result");
  return strategies.front();  // unreachable
}

util::Table FlowResult::summary_table() const {
  util::Table t("Yield-flow strategy comparison");
  // Per-mechanism columns appear only when the mechanism ran, so the
  // open-only rendering is unchanged by the scenario engine's existence.
  const bool shorts = scenario.shorts.has_value();
  const bool length = scenario.length.has_value();
  std::vector<std::string> header = {"strategy",      "relaxation",
                                     "W_min (nm)",    "power penalty",
                                     "cells widened", "library area"};
  if (shorts) {
    header.push_back("Y_short");
    header.push_back("req p_Rm");
  }
  if (length) header.push_back("len scale");
  t.header(std::move(header));
  for (const auto& r : strategies) {
    // Named lvalue sidesteps GCC 12's -Wrestrict false positive on
    // operator+(const char*, std::string&&) (GCC bug 105329).
    const std::string area = util::format_pct(r.area_penalty);
    t.begin_row()
        .cell(to_string(r.strategy))
        .cell(util::format_sig(r.relaxation, 4) + "X")
        .num(r.w_min, 4)
        .cell(util::format_pct(r.power_penalty))
        .cell(std::to_string(r.cells_widened))
        .cell("+" + area);
    if (shorts) {
      t.cell(util::format_sig(r.short_mode_yield, 6))
          .cell(util::format_sig(r.required_p_rm, 8));
    }
    if (length) t.num(r.length_scale, 4);
  }
  return t;
}

void validate(const FlowParams& f) {
  // Affirmative comparisons reject NaN for free (every NaN compare is
  // false), so a NaN yield or CV lands in the same error as an
  // out-of-range one. Plain invalid_argument, not a contract macro: the
  // message crosses the service wire verbatim, so it must name the field
  // and nothing else (no source paths).
  const auto check = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  check(f.yield_desired > 0.0 && f.yield_desired < 1.0,
        "yield_desired must be in (0, 1)");
  check(f.chip_transistors >= 1.0 && f.chip_transistors <= 1e16,
        "chip_transistors must be in [1, 1e16]");
  check(f.l_cnt > 0.0 && f.l_cnt <= 1e9, "l_cnt must be in (0, 1e9] nm");
  check(f.fets_per_um > 0.0 && f.fets_per_um <= 1e4,
        "fets_per_um must be in (0, 1e4]");
  check(f.active_spacing >= 0.0 && f.active_spacing <= 1e6,
        "active_spacing must be in [0, 1e6] nm");
  check(f.mc_samples >= 1 && f.mc_samples <= 10'000'000,
        "mc_samples must be in [1, 1e7]");
  check(f.mc_streams >= 1 && f.mc_streams <= 4096,
        "mc_streams must be in [1, 4096]");
  scenario::validate(f.scenario);
}

namespace {

/// Relaxation of the DirectionalOnly strategy: conditional MC over the
/// unmodified library's window-offset diversity at the W_min operating
/// point (iterated once: relaxation depends weakly on the width used).
double directional_relaxation(const netlist::Design& design,
                              const device::FailureModel& model,
                              const FlowParams& params, double w_probe) {
  const auto offsets = layout::window_offsets(design, w_probe);
  CNY_EXPECT_MSG(!offsets.empty(), "design has no critical regions");
  std::vector<geom::Interval> windows;
  windows.reserve(offsets.size());
  for (const auto& o : offsets) windows.push_back({o.y, o.y + w_probe});

  const double p_f = model.p_f(w_probe, params.n_threads);
  const double lambda_s = -std::log(p_f) / w_probe;
  rng::Xoshiro256 rng(rng::derive_seed(params.seed, 0xF10));
  const exec::McPolicy policy{params.n_threads, params.mc_streams};
  const double p_rf =
      union_conditional_mc(lambda_s, windows, params.mc_samples, rng, policy)
          .estimate;
  RowParams rows;
  rows.l_cnt = params.l_cnt;
  rows.fets_per_um = params.fets_per_um;
  rows.m_min = 1;
  return relaxation_factor(p_rf, p_f, rows);
}

}  // namespace

FlowResult run_flow(const celllib::Library& lib,
                    const netlist::Design& design,
                    const device::FailureModel& orig_model,
                    const FlowParams& params) {
  CNY_EXPECT(&design.library() == &lib);
  validate(params);

  const scenario::Engine engine(params, orig_model.pitch(),
                                orig_model.process());

  // RemovalFrontier derivation: rebuild at the earned corner only when the
  // caller's model is elsewhere — the service's sessions and warm_model
  // already hand over warm models at the derived corner, which pass
  // through untouched.
  std::optional<device::FailureModel> corner_model;
  if (!engine.matches(orig_model.process())) {
    corner_model.emplace(orig_model.pitch(), engine.process());
  }
  const device::FailureModel& model =
      corner_model ? *corner_model : orig_model;

  auto spectrum = design.width_spectrum();
  spectrum = scale_spectrum(
      spectrum, 1.0,
      params.chip_transistors / double(design.n_transistors()));

  RowParams rows;
  rows.l_cnt = params.l_cnt;
  rows.fets_per_um = params.fets_per_um;
  rows.m_min = 1;
  const double mrmin = m_r_min(rows);

  FlowResult out;
  out.m_r_min = mrmin;
  out.scenario = params.scenario;
  if (engine.removal_active()) out.derived_p_rs = engine.process().p_remove_s;

  // ShortFailure: the solver fixpoints against Y_S so every strategy's
  // W_min meets the combined open x short requirement. Empty hook = the
  // unchanged open-only solve.
  const auto short_yield = engine.short_mode_yield();

  const auto solve = [&](double relaxation) {
    WminRequest req;
    req.yield_desired = params.yield_desired;
    req.relaxation = relaxation;
    req.short_mode_yield = short_yield;
    req.n_threads = params.n_threads;
    return solve_w_min(spectrum, model, req);
  };

  // Per-strategy scenario columns (mechanism-off defaults otherwise).
  const auto fill_scenario = [&](StrategyResult& r, const WminResult& solved) {
    r.short_mode_yield = solved.short_mode_yield;
    if (engine.shorts_active()) r.required_p_rm = engine.required_p_rm(r.w_min);
  };

  // Uncorrelated baseline.
  const auto base = solve(1.0);
  out.m_min_uncorrelated = base.m_min;

  // Directional-only: probe the relaxation at the baseline W_min.
  const double dir_relax =
      directional_relaxation(design, model, params, base.w_min);

  // FiniteLength: the aligned-credit rescale, probed (like the directional
  // relaxation) at the baseline W_min's functional-CNT density.
  double length_scale = 1.0;
  if (engine.length_active()) {
    const double lambda_s =
        -std::log(model.p_f(base.w_min, params.n_threads)) / base.w_min;
    length_scale = engine.aligned_length_scale(lambda_s, base.w_min);
  }

  const auto eval_aligned = [&](int rows_per_polarity, StrategyResult& r) {
    double relax = mrmin / (rows_per_polarity == 2 ? 2.0 : 1.0);
    if (engine.length_active()) {
      relax = std::max(1.0, relax * length_scale);
      r.length_scale = length_scale;
    }
    const auto solved = solve(relax);
    layout::AlignOptions options;
    options.w_min = solved.w_min;
    options.rows_per_polarity = rows_per_polarity;
    const auto aligned =
        layout::align_active(lib, options, params.active_spacing);
    r.relaxation = relax;
    r.w_min = solved.w_min;
    r.power_penalty = power::upsizing_penalty(spectrum, solved.w_min);
    r.area_penalty = aligned.area_increase();
    r.cells_widened = aligned.cells_with_penalty();
    fill_scenario(r, solved);
  };

  {
    StrategyResult r;
    r.strategy = Strategy::Uncorrelated;
    r.relaxation = 1.0;
    r.w_min = base.w_min;
    r.power_penalty = power::upsizing_penalty(spectrum, base.w_min);
    fill_scenario(r, base);
    out.strategies.push_back(r);
  }
  {
    StrategyResult r;
    r.strategy = Strategy::DirectionalOnly;
    r.relaxation = dir_relax;
    const auto solved = solve(dir_relax);
    r.w_min = solved.w_min;
    r.power_penalty = power::upsizing_penalty(spectrum, solved.w_min);
    fill_scenario(r, solved);
    out.strategies.push_back(r);
  }
  {
    StrategyResult r;
    r.strategy = Strategy::AlignedOneRow;
    eval_aligned(1, r);
    out.strategies.push_back(r);
  }
  {
    StrategyResult r;
    r.strategy = Strategy::AlignedTwoRows;
    eval_aligned(2, r);
    out.strategies.push_back(r);
  }
  return out;
}

device::FailureModel warm_model(const device::FailureModel& base,
                                const scenario::ScenarioSpec& scenario,
                                std::size_t knots, unsigned n_threads) {
  // Fail on the named parameter before corner derivation can trip over it
  // (p_rs_at on a NaN target would throw a message naming nothing).
  scenario::validate(scenario);
  const auto corner = scenario::derived_process(base.process(), scenario);
  const bool own_corner = corner.p_metallic == base.process().p_metallic &&
                          corner.p_remove_s == base.process().p_remove_s;
  device::FailureModel model =
      own_corner ? device::FailureModel(base)
                 : device::FailureModel(base.pitch(), corner);
  const WminRequest bracket;
  model.enable_interpolation(bracket.w_lo, bracket.w_hi, knots, n_threads);
  return model;
}

}  // namespace cny::yield
