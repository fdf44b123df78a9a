// Student's t distribution via the regularized incomplete beta function.
// Needed to turn t statistics into the confidence values EvSel displays
// ("the reached confidence is shown", Fig. 5).
#pragma once

namespace npat::stats {

/// Regularized incomplete beta function I_x(a, b) for a,b > 0, x in [0,1].
/// Continued-fraction evaluation (Lentz), accurate to ~1e-12.
double incomplete_beta(double a, double b, double x);

/// Two-tailed p-value for a t statistic.
double two_tailed_p(double t, double df);

/// ln Γ(x) wrapper (std::lgamma without the sign-global issue).
double log_gamma(double x);

}  // namespace npat::stats
