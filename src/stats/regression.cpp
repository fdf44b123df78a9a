#include "stats/regression.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/solve.hpp"
#include "stats/descriptive.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace npat::stats {

const char* fit_kind_name(FitKind kind) {
  switch (kind) {
    case FitKind::kLinear: return "linear";
    case FitKind::kQuadratic: return "quadratic";
    case FitKind::kExponential: return "exponential";
  }
  return "?";
}

double Fit::evaluate(double x) const {
  switch (kind) {
    case FitKind::kLinear:
      return coefficients[0] + coefficients[1] * x;
    case FitKind::kQuadratic:
      return coefficients[0] + coefficients[1] * x + coefficients[2] * x * x;
    case FitKind::kExponential:
      return coefficients[0] * std::exp(coefficients[1] * x);
  }
  return 0.0;
}

std::string Fit::formula(int precision) const {
  using util::compact_double;
  switch (kind) {
    case FitKind::kLinear:
      return "y = " + compact_double(coefficients[0], precision) +
             (coefficients[1] >= 0 ? " + " : " - ") +
             compact_double(std::fabs(coefficients[1]), precision) + "·x";
    case FitKind::kQuadratic:
      return "y = " + compact_double(coefficients[0], precision) +
             (coefficients[1] >= 0 ? " + " : " - ") +
             compact_double(std::fabs(coefficients[1]), precision) + "·x" +
             (coefficients[2] >= 0 ? " + " : " - ") +
             compact_double(std::fabs(coefficients[2]), precision) + "·x²";
    case FitKind::kExponential:
      return "y = " + compact_double(coefficients[0], precision) + "·e^(" +
             compact_double(coefficients[1], precision) + "·x)";
  }
  return "";
}

std::optional<double> r_squared(std::span<const double> observed,
                                std::span<const double> predicted) {
  NPAT_CHECK_MSG(observed.size() == predicted.size(), "r_squared length mismatch");
  const double my = mean(observed);
  double ss_tot = 0.0;
  double ss_res = 0.0;
  for (usize i = 0; i < observed.size(); ++i) {
    ss_tot += (observed[i] - my) * (observed[i] - my);
    ss_res += (observed[i] - predicted[i]) * (observed[i] - predicted[i]);
  }
  if (ss_tot <= 0.0) return std::nullopt;
  return 1.0 - ss_res / ss_tot;
}

namespace {

std::optional<Fit> finish_fit(FitKind kind, std::vector<double> coefficients,
                              std::span<const double> x, std::span<const double> y) {
  Fit fit;
  fit.kind = kind;
  fit.coefficients = std::move(coefficients);

  std::vector<double> predicted(x.size());
  for (usize i = 0; i < x.size(); ++i) predicted[i] = fit.evaluate(x[i]);
  const auto r2 = r_squared(y, predicted);
  if (!r2) return std::nullopt;  // constant response: no meaningful fit
  fit.r_squared = std::max(0.0, *r2);

  double ss_res = 0.0;
  for (usize i = 0; i < y.size(); ++i) {
    ss_res += (y[i] - predicted[i]) * (y[i] - predicted[i]);
  }
  fit.residual_ss = ss_res;

  // Sign convention: the fitted trend across the sampled range (a
  // quadratic dominated by its linear term must not flip the sign of R).
  const auto [min_it, max_it] = std::minmax_element(x.begin(), x.end());
  const double direction = fit.evaluate(*max_it) - fit.evaluate(*min_it);
  fit.r = std::copysign(std::sqrt(fit.r_squared), direction == 0.0 ? 1.0 : direction);
  return fit;
}

}  // namespace

std::optional<Fit> fit_polynomial(std::span<const double> x, std::span<const double> y,
                                  int degree) {
  NPAT_CHECK_MSG(degree >= 1 && degree <= 3, "supported polynomial degrees: 1..3");
  NPAT_CHECK_MSG(x.size() == y.size(), "fit length mismatch");
  if (x.size() < static_cast<usize>(degree) + 1) return std::nullopt;

  // Design matrix with columns [1, x, x², ...] — exactly the overdetermined
  // system y = Xβ the paper spells out in §IV-C.1.
  linalg::Matrix design(x.size(), static_cast<usize>(degree) + 1);
  for (usize i = 0; i < x.size(); ++i) {
    double pow_x = 1.0;
    for (int d = 0; d <= degree; ++d) {
      design(i, static_cast<usize>(d)) = pow_x;
      pow_x *= x[i];
    }
  }
  const auto solution = linalg::least_squares(design, linalg::Vector(y.begin(), y.end()));
  if (!solution) return std::nullopt;
  const FitKind kind = degree == 1 ? FitKind::kLinear : FitKind::kQuadratic;
  return finish_fit(kind, solution->beta, x, y);
}

std::optional<Fit> fit_linear(std::span<const double> x, std::span<const double> y) {
  return fit_polynomial(x, y, 1);
}

std::optional<Fit> fit_quadratic(std::span<const double> x, std::span<const double> y) {
  return fit_polynomial(x, y, 2);
}

std::optional<Fit> fit_exponential(std::span<const double> x, std::span<const double> y) {
  NPAT_CHECK_MSG(x.size() == y.size(), "fit length mismatch");
  if (x.size() < 3) return std::nullopt;
  // Log-linearize: ln y = ln a + b·x. Requires strictly positive responses.
  std::vector<double> log_y(y.size());
  for (usize i = 0; i < y.size(); ++i) {
    if (!(y[i] > 0.0)) return std::nullopt;
    log_y[i] = std::log(y[i]);
  }
  const auto linear = fit_polynomial(x, log_y, 1);
  if (!linear) return std::nullopt;
  std::vector<double> coefficients = {std::exp(linear->coefficients[0]),
                                      linear->coefficients[1]};
  return finish_fit(FitKind::kExponential, std::move(coefficients), x, y);
}

std::vector<Fit> fit_all(std::span<const double> x, std::span<const double> y) {
  std::vector<Fit> fits;
  if (auto f = fit_linear(x, y)) fits.push_back(std::move(*f));
  if (auto f = fit_quadratic(x, y)) fits.push_back(std::move(*f));
  if (auto f = fit_exponential(x, y)) fits.push_back(std::move(*f));
  std::stable_sort(fits.begin(), fits.end(),
                   [](const Fit& a, const Fit& b) { return a.r_squared > b.r_squared; });
  return fits;
}

}  // namespace npat::stats
