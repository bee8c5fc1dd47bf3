// Self-test of the benchmark's statistics helpers: the reported-percentile
// picker, the slicing of samples and the open-loop lateness accounting.
// Run it through `python3 perfbench/run.py --self-test`; exits non-zero on
// any failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_exact_quantile() {
  const auto v = one_to(100);
  CHECK(near(perfbench::exact_quantile(v, 0.50), 50.0));
  CHECK(near(perfbench::exact_quantile(v, 0.99), 99.0));
  CHECK(near(perfbench::exact_quantile(v, 1.0), 100.0));
  CHECK(near(perfbench::exact_quantile(v, 0.0), 1.0));
  CHECK(near(perfbench::exact_quantile({}, 0.5), 0.0));
  // Nearest rank never interpolates: every answer is an observed sample.
  CHECK(near(perfbench::exact_quantile({1.0, 1000.0}, 0.75), 1000.0));
}

void test_reportable_percentile() {
  // p99 of 1000 samples leaves exactly 10 beyond it: reportable.
  CHECK(perfbench::samples_beyond(1000, 99.0) == 10);
  CHECK(near(perfbench::reportable_percentile(1000), 99.0));
  // 999 samples leave 9 beyond p99, so the picker falls back to p95.
  CHECK(perfbench::samples_beyond(999, 99.0) == 9);
  CHECK(near(perfbench::reportable_percentile(999), 95.0));
  // 200 samples: p95 has 10 beyond it.
  CHECK(near(perfbench::reportable_percentile(200), 95.0));
  CHECK(near(perfbench::reportable_percentile(199), 90.0));
  // Never above the wanted percentile, even with plenty of samples.
  CHECK(near(perfbench::reportable_percentile(100000, 95.0), 95.0));
  // 20 samples: the median has 10 beyond it; 19 has none reportable.
  CHECK(near(perfbench::reportable_percentile(20), 50.0));
  CHECK(near(perfbench::reportable_percentile(19), 0.0));
  CHECK(near(perfbench::reportable_percentile(0), 0.0));
}

void test_summarize() {
  auto s = perfbench::summarize(one_to(1000));
  CHECK(s.count == 1000);
  CHECK(near(s.p50, 500.0));
  CHECK(near(s.tail_percentile, 99.0));
  CHECK(near(s.tail, 990.0));
  CHECK(near(s.max, 1000.0));
  CHECK(near(s.mean, 500.5));
  // Too few samples for any tail: the maximum is reported, flagged by 0.
  s = perfbench::summarize({3.0, 1.0, 2.0});
  CHECK(near(s.tail_percentile, 0.0));
  CHECK(near(s.tail, 3.0));
  CHECK(near(perfbench::median({5.0, 1.0, 3.0, 100.0}), 4.0));
}

void test_sliced_summary() {
  // Three one-second slices of 1000 samples; the middle one saw a stall.
  std::vector<std::vector<double>> slices(3);
  for (std::size_t i = 1; i <= 1000; ++i) {
    slices[0].push_back(static_cast<double>(i));
    slices[1].push_back(static_cast<double>(i) + 5000.0);
    slices[2].push_back(static_cast<double>(i) + 10.0);
  }
  slices.emplace_back();  // an empty slice is skipped
  const auto s = perfbench::summarize_slices(slices);
  CHECK(s.slices == 3);
  CHECK(s.count == 3000);
  CHECK(near(s.p50, 510.0));   // medians 500, 5500, 510
  CHECK(near(s.tail, 1000.0)); // tails 990, 5990, 1000
  CHECK(near(s.tail_percentile, 99.0));
  // A short slice drags the reported tail percentile down, and says so.
  slices[2].resize(200);
  CHECK(near(perfbench::summarize_slices(slices).tail_percentile, 95.0));
  CHECK(perfbench::summarize_slices({}).slices == 0);
}

void test_chunks() {
  // 2500 samples in slices of 1000: the 500 left over join the second.
  auto c = perfbench::chunks(one_to(2500), 1000);
  CHECK(c.size() == 2);
  CHECK(c[0].size() == 1000 && c[1].size() == 1500);
  CHECK(near(c[0].front(), 1.0) && near(c[1].front(), 1001.0));
  CHECK(near(c[1].back(), 2500.0));
  // An exact multiple splits evenly.
  c = perfbench::chunks(one_to(3000), 1000);
  CHECK(c.size() == 3 && c[2].size() == 1000);
  // Fewer samples than one slice (a short run): one slice of all of them.
  c = perfbench::chunks(one_to(420), 1000);
  CHECK(c.size() == 1 && c[0].size() == 420);
  CHECK(near(c[0].back(), 420.0));
  CHECK(perfbench::chunks({}, 1000).empty());
  CHECK(perfbench::chunks(one_to(5), 0).empty());
}

void test_open_loop_lateness() {
  // Ten reports due every 10 ms. The generator stalls for 45 ms before the
  // third send, then catches up by sending the backlog at once.
  std::vector<double> due;
  for (int i = 0; i < 10; ++i) due.push_back(0.010 * i);
  perfbench::OpenLoopAccount account(due);
  CHECK(near(account.record_send(0, 0.000), 0.0));
  CHECK(near(account.record_send(1, 0.010), 0.0));
  // Reports 2..6 (due 20..60 ms) all leave at 65 ms.
  CHECK(near(account.record_send(2, 0.065), 0.045));
  CHECK(near(account.record_send(3, 0.065), 0.035));
  CHECK(near(account.record_send(6, 0.065), 0.005));
  account.record_send(4, 0.065);
  account.record_send(5, 0.065);
  // An early send is not negative lateness.
  CHECK(near(account.record_send(7, 0.069), 0.0));
  account.record_send(8, 0.080);
  account.record_send(9, 0.090);
  const auto lateness = account.lateness();
  CHECK(lateness.size() == 10);
  const auto late = perfbench::summarize(lateness, 99.0);
  CHECK(near(late.max, 0.045));

  // Every report settles 2 ms after it was sent: latency from the due time
  // charges the stall to every report queued behind it, while latency from
  // the send time would hide it completely.
  const double sends[] = {0.000, 0.010, 0.065, 0.065, 0.065,
                          0.065, 0.065, 0.069, 0.080, 0.090};
  for (int i = 0; i < 10; ++i) account.record_settle(i, sends[i] + 0.002);
  const auto latency = account.latency_from_due();
  CHECK(latency.size() == 10);
  CHECK(near(latency[0], 0.002));
  CHECK(near(latency[2], 0.047));
  CHECK(near(latency[6], 0.007));
  // Report 7 left 1 ms early: its latency is shorter than send-to-settle.
  CHECK(near(latency[7], 0.001));
  // By due time in 50 ms slices: reports 0-4 and 5-9.
  const auto slices = account.latency_slices(0.050);
  CHECK(slices.size() == 2);
  CHECK(slices[0].size() == 5 && slices[1].size() == 5);
  CHECK(near(slices[0][2], 0.047));
  CHECK(near(slices[1][1], 0.007));
  // Unsent/unsettled reports are not samples.
  perfbench::OpenLoopAccount partial({0.0, 0.1});
  partial.record_send(0, 0.0);
  CHECK(partial.lateness().size() == 1);
  CHECK(partial.latency_from_due().empty());
}

void test_micro_f1() {
  perfbench::MicroF1 f1;
  CHECK(near(f1.value(), 1.0));
  f1.add({1, 2}, {1, 2});  // 2 TP
  f1.add({3}, {4});        // 1 FP, 1 FN
  f1.add({}, {});          // noise window screened out: nothing counted
  f1.add({5}, {});         // noise window misread as an install: 1 FP
  CHECK(f1.true_positives() == 2);
  CHECK(near(f1.value(), 4.0 / (4.0 + 2.0 + 1.0)));
}

}  // namespace

int main() {
  test_exact_quantile();
  test_reportable_percentile();
  test_summarize();
  test_sliced_summary();
  test_chunks();
  test_open_loop_lateness();
  test_micro_f1();
  if (failures > 0) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
