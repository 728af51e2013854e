// Surviving-metallic-CNT (short / noise-margin) failure mode.
//
// The paper's count-failure analysis assumes p_Rm ≈ 1; this extension
// models what the paper cites from [Zhang 09b]: with imperfect removal,
// a device keeps each grown m-CNT with probability p_short = p_m(1 - p_Rm),
// and a surviving m-CNT shorts source to drain, degrading noise margins.
// A noise-susceptible gate becomes a yield loss only with probability
// `p_noise_fails` (signal restoration in following CMOS stages [Zolotov 02]
// usually absorbs it — Sec 2.1).
//
// The module answers the question behind the paper's "p_Rm > 99.99 % is
// required for practical VLSI" remark: given a chip and a susceptibility
// budget, how selective must removal be?
#pragma once

#include "cnt/pitch_model.h"
#include "cnt/process.h"

namespace cny::device {

class ShortModel {
 public:
  ShortModel(cnt::PitchModel pitch, cnt::ProcessParams process);

  /// Probability a device of width W retains >= 1 metallic CNT:
  ///   p_S(W) = 1 - G_{N(W)}(1 - p_short)   (same PGF machinery as eq 2.2).
  [[nodiscard]] double p_short_device(double width) const;

  /// Expected surviving m-CNT count in a device of width W.
  [[nodiscard]] double mean_shorts(double width) const;

  /// Chip yield against the short mode: every susceptible gate
  /// independently causes a logic failure with probability p_noise_fails.
  [[nodiscard]] double chip_yield_shorts(double width, double n_devices,
                                         double p_noise_fails) const;

  /// Smallest p_Rm such that the chip short-mode yield meets
  /// `yield_desired` (inverts the above in p_Rm; all other process
  /// parameters held). Returns a value in [0, 1].
  [[nodiscard]] static double required_p_rm(const cnt::PitchModel& pitch,
                                            double p_metallic, double width,
                                            double n_devices,
                                            double p_noise_fails,
                                            double yield_desired);

  [[nodiscard]] const cnt::ProcessParams& process() const { return process_; }

 private:
  cnt::PitchModel pitch_;
  cnt::ProcessParams process_;
};

}  // namespace cny::device
