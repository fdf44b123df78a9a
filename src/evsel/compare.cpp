#include "evsel/compare.hpp"

#include "obs/obs.hpp"
#include "stats/multiple_comparisons.hpp"
#include "util/check.hpp"

namespace npat::evsel {

namespace {

/// Merges trust evidence from two sources: absent evidence (kUnvalidated)
/// never outranks a real tier, otherwise the worse tier wins. This differs
/// from validate::worse(), where kUnvalidated is the highest ordinal.
validate::TrustTier merge_trust(validate::TrustTier a, validate::TrustTier b) {
  if (a == validate::TrustTier::kUnvalidated) return b;
  if (b == validate::TrustTier::kUnvalidated) return a;
  return validate::worse(a, b);
}

}  // namespace

const ComparisonRow& Comparison::row(sim::Event event) const {
  for (const auto& r : rows) {
    if (r.event == event) return r;
  }
  NPAT_CHECK_MSG(false, "event not present in comparison");
  static const ComparisonRow kUnreachable{};
  return kUnreachable;
}

Comparison compare(const Measurement& a, const Measurement& b, const CompareOptions& options) {
  NPAT_OBS_SPAN("evsel.compare");
  Comparison out;
  out.label_a = a.label();
  out.label_b = b.label();
  out.quarantined_a = a.quarantined_runs();
  out.quarantined_b = b.quarantined_runs();
  out.retry_exhausted_a = a.retry_exhausted_runs();
  out.retry_exhausted_b = b.retry_exhausted_runs();

  const validate::TrustReport* report =
      options.trust != nullptr ? options.trust : validate::active_trust_report();

  for (const auto& info : sim::all_events()) {
    const auto& samples_a = a.samples(info.event);
    const auto& samples_b = b.samples(info.event);
    if (samples_a.size() < 2 || samples_b.size() < 2) continue;

    ComparisonRow row;
    row.event = info.event;
    row.repetitions_a = samples_a.size();
    row.repetitions_b = samples_b.size();
    row.zero_in_both = a.all_zero(info.event) && b.all_zero(info.event);
    row.trust = merge_trust(a.trust(info.event), b.trust(info.event));
    if (report != nullptr) row.trust = merge_trust(row.trust, report->tier(info.event));
    if (row.trust == validate::TrustTier::kRefuted) {
      // A refuted counter's samples are known-wrong; running a t-test on
      // them would manufacture significance from broken hardware. Keep the
      // row so the quarantine is visible, but never spend a Holm slot on it.
      row.trust_quarantined = true;
      row.test.degenerate = true;
      ++out.refuted_quarantined;
    } else {
      row.test = stats::t_test(samples_a, samples_b, options.test);
      row.adjusted_p = row.test.p_two_tailed;
    }
    out.rows.push_back(row);
  }

  if (options.adjust_for_multiple_comparisons) {
    std::vector<usize> tested;
    std::vector<double> p_values;
    for (usize i = 0; i < out.rows.size(); ++i) {
      if (out.rows[i].trust_quarantined) continue;
      tested.push_back(i);
      p_values.push_back(out.rows[i].test.p_two_tailed);
    }
    // All-refuted comparisons degrade to a counted no-op: nothing to adjust.
    if (!p_values.empty()) {
      const auto adjusted = stats::holm_adjust(p_values);
      for (usize i = 0; i < tested.size(); ++i) out.rows[tested[i]].adjusted_p = adjusted[i];
    }
  }
  return out;
}

}  // namespace npat::evsel
