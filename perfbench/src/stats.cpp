#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest rank of `percentile` among `count` samples.
std::size_t nearest_rank(std::size_t count, double percentile) {
  if (count == 0) return 0;
  const double rank = std::ceil(percentile / 100.0 * static_cast<double>(count));
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, count);
}

}  // namespace

double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), q * 100.0) - 1];
}

std::size_t samples_beyond(std::size_t count, double percentile) {
  return count - nearest_rank(count, percentile);
}

double reportable_percentile(std::size_t count, double wanted,
                             std::size_t min_beyond) {
  for (const double candidate : {wanted, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (candidate > wanted) continue;
    if (count > 0 && samples_beyond(count, candidate) >= min_beyond)
      return candidate;
  }
  return 0.0;
}

Summary summarize(std::vector<double> samples, double wanted_tail) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = exact_quantile(samples, 0.5);
  s.tail_percentile = reportable_percentile(samples.size(), wanted_tail);
  // With too few samples for any reportable tail, the maximum is the only
  // honest tail figure; tail_percentile = 0 says so.
  s.tail = s.tail_percentile > 0.0
               ? exact_quantile(samples, s.tail_percentile / 100.0)
               : samples.back();
  s.max = samples.back();
  return s;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

SlicedSummary summarize_slices(const std::vector<std::vector<double>>& slices,
                               double wanted_tail) {
  SlicedSummary out;
  std::vector<double> p50s;
  std::vector<double> tails;
  out.tail_percentile = wanted_tail;
  for (const auto& slice : slices) {
    if (slice.empty()) continue;
    const Summary s = summarize(slice, wanted_tail);
    ++out.slices;
    out.count += s.count;
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    out.tail_percentile = std::min(out.tail_percentile, s.tail_percentile);
  }
  if (out.slices == 0) out.tail_percentile = 0.0;
  out.p50 = median(p50s);
  out.tail = median(tails);
  return out;
}

std::vector<std::vector<double>> chunks(const std::vector<double>& samples,
                                        std::size_t size) {
  std::vector<std::vector<double>> out;
  if (size == 0) return out;
  for (std::size_t begin = 0; begin < samples.size();) {
    std::size_t end = std::min(samples.size(), begin + size);
    if (samples.size() - end < size) end = samples.size();
    out.emplace_back(samples.begin() + static_cast<std::ptrdiff_t>(begin),
                     samples.begin() + static_cast<std::ptrdiff_t>(end));
    begin = end;
  }
  return out;
}

OpenLoopAccount::OpenLoopAccount(std::vector<double> due_s)
    : due_s_(std::move(due_s)),
      sent_s_(due_s_.size(), -1.0),
      settled_s_(due_s_.size(), -1.0) {
  if (!std::is_sorted(due_s_.begin(), due_s_.end()))
    throw std::invalid_argument("OpenLoopAccount: due times must be sorted");
}

double OpenLoopAccount::record_send(std::size_t i, double sent_s) {
  sent_s_.at(i) = sent_s;
  return std::max(0.0, sent_s - due_s_[i]);
}

void OpenLoopAccount::record_settle(std::size_t i, double settled_s) {
  settled_s_.at(i) = settled_s;
}

std::vector<double> OpenLoopAccount::lateness() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < due_s_.size(); ++i) {
    if (sent(i)) out.push_back(std::max(0.0, sent_s_[i] - due_s_[i]));
  }
  return out;
}

std::vector<double> OpenLoopAccount::latency_from_due() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < due_s_.size(); ++i) {
    if (settled(i)) out.push_back(settled_s_[i] - due_s_[i]);
  }
  return out;
}

std::vector<std::vector<double>> OpenLoopAccount::latency_slices(
    double slice_s) const {
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i < due_s_.size(); ++i) {
    if (!settled(i)) continue;
    const auto slice = static_cast<std::size_t>(due_s_[i] / slice_s);
    if (out.size() <= slice) out.resize(slice + 1);
    out[slice].push_back(settled_s_[i] - due_s_[i]);
  }
  return out;
}

void MicroF1::add(const std::vector<std::uint32_t>& predicted,
                  const std::vector<std::uint32_t>& truth) {
  for (const std::uint32_t p : predicted) {
    if (std::find(truth.begin(), truth.end(), p) != truth.end()) {
      ++tp_;
    } else {
      ++fp_;
    }
  }
  for (const std::uint32_t t : truth) {
    if (std::find(predicted.begin(), predicted.end(), t) == predicted.end())
      ++fn_;
  }
}

double MicroF1::value() const {
  const std::uint64_t denominator = 2 * tp_ + fp_ + fn_;
  if (denominator == 0) return 1.0;
  return static_cast<double>(2 * tp_) / static_cast<double>(denominator);
}

}  // namespace perfbench
