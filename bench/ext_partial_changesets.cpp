// Extension experiment: partial changesets (paper §VI discussion).
//
// When a sampling boundary lands mid-installation, the installation's
// footprint is split across two changesets and "neither the preceding nor
// the following changeset contains enough information to uniquely identify
// the application". This bench quantifies that effect and the remedy:
//   * whole       — classify intact changesets (baseline);
//   * split-half  — classify each half of a mid-install split separately
//                   (a prediction counts if either half names the app);
//   * merged      — re-join adjacent halves before classifying (§VI remedy,
//                   what DiscoveryService's boundary guard automates).
#include <iostream>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "eval/harness.hpp"
#include "eval/metrics.hpp"
#include "eval/table.hpp"
#include "pkg/dataset.hpp"

using namespace praxi;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);

  const auto catalog = pkg::Catalog::standard(args.seed);
  pkg::DatasetBuilder builder(catalog, args.seed);
  pkg::CollectOptions options;
  options.samples_per_app = args.scaled(30, 5);
  const pkg::Dataset dirty = builder.collect_dirty(options);

  std::cout << "== Extension: partial changesets (paper §VI) ==\n"
            << "scale=" << args.scale << "  " << dirty.size()
            << " dirty changesets\n\n";

  // Train on intact changesets (the realistic deployment: training data is
  // collected under controlled boundaries), test on boundary-split ones.
  std::vector<const fs::Changeset*> train, test;
  for (std::size_t i = 0; i < dirty.changesets.size(); ++i) {
    ((i % 3 == 0) ? test : train).push_back(&dirty.changesets[i]);
  }
  eval::PraxiMethod praxi_method;
  praxi_method.train(train);

  // Every half is its own observation window that must identify the app on
  // its own — exactly the situation §VI describes. A window that fails is a
  // missed or misattributed installation.
  Rng rng(args.seed, "split");
  std::size_t whole_ok = 0, merged_ok = 0;
  std::size_t half_ok = 0, halves = 0, starved_halves = 0;
  for (const fs::Changeset* cs : test) {
    const std::string truth = cs->labels().front();
    whole_ok += praxi_method.predict(*cs, 1).front() == truth;

    // Split uniformly at random within the record stream (the boundary has
    // no reason to respect installation structure).
    const auto& records = cs->records();
    const std::size_t cut_index = 1 + rng.below(records.size() - 1);
    const std::int64_t cut_time = records[cut_index].time_ms;
    const auto [before, after] = fs::split_at(*cs, cut_time);

    for (const fs::Changeset* half : {&before, &after}) {
      if (half->empty()) continue;
      ++halves;
      const auto tags = praxi_method.model().extract_tags(*half);
      if (tags.empty()) ++starved_halves;  // too little signal to even tag
      half_ok += praxi_method.predict(*half, 1).front() == truth;
    }

    const fs::Changeset rejoined = fs::merge_adjacent(before, after);
    merged_ok += praxi_method.predict(rejoined, 1).front() == truth;
  }

  eval::TextTable table({"changeset handling", "accuracy"});
  const double n = double(test.size());
  table.add_row({"whole changesets (baseline)",
                 eval::fmt_percent(double(whole_ok) / n)});
  table.add_row({"boundary-split halves, each classified alone",
                 eval::fmt_percent(double(half_ok) / double(halves))});
  table.add_row({"adjacent halves merged before classifying (§VI remedy)",
                 eval::fmt_percent(double(merged_ok) / n)});
  table.print(std::cout);
  std::cout << "\n" << starved_halves << " of " << halves
            << " halves produced no tags at all (not enough repeated "
               "structure to identify anything)\n";

  std::cout << "\nPaper reference (§VI): discovery methods perform poorly on "
               "partial changesets;\nmerging the adjacent changesets before "
               "analysis restores accuracy. The\nDiscoveryService boundary "
               "guard (boundary_guard_s) automates the merge decision.\n";
  return 0;
}
