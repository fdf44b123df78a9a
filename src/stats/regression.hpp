// Parameter-to-indicator regressions (EvSel §IV-A.2): "linear, quadratic,
// and exponential regressions are created and evaluated". Each fit reports
// its coefficient of determination R²; EvSel shows the best fit per event
// (paper Fig. 9 displays fit type, function, and R).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace npat::stats {

enum class FitKind { kLinear, kQuadratic, kExponential };

const char* fit_kind_name(FitKind kind);

struct Fit {
  FitKind kind = FitKind::kLinear;
  /// Coefficients, lowest order first:
  ///   linear      y = c0 + c1·x
  ///   quadratic   y = c0 + c1·x + c2·x²
  ///   exponential y = c0 · exp(c1·x)
  std::vector<double> coefficients;
  double r_squared = 0.0;
  /// Signed correlation for linear fits (sign of slope × √R²); EvSel's UI
  /// reports R with sign to distinguish positive/negative correlations.
  double r = 0.0;
  double residual_ss = 0.0;

  double evaluate(double x) const;
  /// Human-readable function, e.g. "y = 3.2 + 0.45·x" (Fig. 9 style).
  std::string formula(int precision = 4) const;
};

/// Least-squares polynomial fit of the given degree (>= 1).
std::optional<Fit> fit_polynomial(std::span<const double> x, std::span<const double> y,
                                  int degree);

std::optional<Fit> fit_linear(std::span<const double> x, std::span<const double> y);
std::optional<Fit> fit_quadratic(std::span<const double> x, std::span<const double> y);

/// y = a·e^{bx} via log-linear least squares; requires all y > 0.
std::optional<Fit> fit_exponential(std::span<const double> x, std::span<const double> y);

/// Runs all three model families and returns them ordered best-R² first.
std::vector<Fit> fit_all(std::span<const double> x, std::span<const double> y);

/// R² of predictions against observations (1 − SS_res/SS_tot); nullopt when
/// the observations are constant.
std::optional<double> r_squared(std::span<const double> observed,
                                std::span<const double> predicted);

}  // namespace npat::stats
