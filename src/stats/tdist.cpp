#include "stats/tdist.hpp"

#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace npat::stats {

double log_gamma(double x) { return std::lgamma(x); }

namespace {

/// Continued fraction for the incomplete beta (Numerical Recipes style,
/// modified Lentz method).
double beta_continued_fraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 1e-14;
  constexpr double kTiny = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
  NPAT_CHECK_MSG(a > 0.0 && b > 0.0, "incomplete_beta requires a,b > 0");
  NPAT_CHECK_MSG(x >= 0.0 && x <= 1.0, "incomplete_beta requires x in [0,1]");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;

  const double ln_front =
      log_gamma(a + b) - log_gamma(a) - log_gamma(b) + a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  // Use the symmetry relation for faster convergence.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double two_tailed_p(double t, double df) {
  const double x = df / (df + t * t);
  return incomplete_beta(df / 2.0, 0.5, x);
}

}  // namespace npat::stats
