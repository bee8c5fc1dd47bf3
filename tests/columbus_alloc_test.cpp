// The ISSUE's steady-state guarantee, asserted directly: after warmup, the
// Columbus extraction pipeline performs ZERO heap allocations. A counting
// global operator new/delete pair observes every allocation in the process;
// the test warms a scratch, then drives extract_ranked() (the surface that
// materializes no owned strings) and requires the counter to stay flat.
//
// This file must stay a standalone binary concern: replacing global
// operator new affects the whole executable, so these counters live here
// and nowhere else.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "columbus/columbus.hpp"
#include "pkg/dataset.hpp"

namespace {

std::atomic<std::uint64_t> g_new_calls{0};

}  // namespace

// Minimal counting allocator: every form of operator new funnels through
// malloc here so the count is exact. Alignment overloads forward to
// aligned_alloc to stay correct for over-aligned types.
void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace praxi::columbus {
namespace {

const pkg::Dataset& corpus() {
  static const pkg::Dataset dataset = [] {
    const auto catalog = pkg::Catalog::subset(42, 8, 2);
    pkg::DatasetBuilder builder(catalog, 7);
    pkg::CollectOptions options;
    options.samples_per_app = 3;
    return builder.collect_dirty(options);
  }();
  return dataset;
}

/// Loads one changeset's paths into a warm scratch and runs the ranked
/// pipeline. Mirrors Columbus::extract() minus the TagSet materialization
/// (owned output strings must allocate; the pipeline itself must not).
std::size_t run_ranked(const Columbus& columbus, const fs::Changeset& cs,
                       ExtractionScratch& scratch) {
  scratch.begin();
  for (const auto& rec : cs.records()) {
    scratch.paths.push_back(PathRef{rec.path, rec.executable()});
  }
  return columbus.extract_ranked(scratch).size();
}

TEST(ColumbusAlloc, ExtractRankedIsAllocationFreeAfterWarmup) {
  const Columbus columbus;
  ExtractionScratch scratch;
  // Warmup: touch the full corpus so every buffer reaches its high-water
  // capacity, metric handles register, and the tls clock caches settle.
  // Three passes make growth-on-rehash impossible to miss.
  std::size_t tags = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& cs : corpus().changesets) {
      tags = run_ranked(columbus, cs, scratch);
    }
  }
  ASSERT_GT(tags, 0u);

  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 5; ++pass) {
    for (const auto& cs : corpus().changesets) {
      run_ranked(columbus, cs, scratch);
    }
  }
  const std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state extraction performed " << (after - before)
      << " heap allocations";
}

/// Directory-heavy changesets: every path sits in its own nested directory
/// (many distinct directories, each tokenized once), and the directory sets
/// of consecutive changesets overlap.
std::vector<std::vector<std::string>> directory_heavy_paths() {
  std::vector<std::vector<std::string>> out;
  for (int c = 0; c < 6; ++c) {
    std::vector<std::string> paths;
    for (int i = 0; i < 300; ++i) {
      paths.push_back("/opt/Vendor-" + std::to_string((c + i) % 9) +
                      "/pkg-" + std::to_string(i) + "/lib/share/sub-" +
                      std::to_string(i % 13) + "/file-" +
                      std::to_string(i % 17) + ".so");
    }
    out.push_back(std::move(paths));
  }
  return out;
}

std::size_t run_ranked(const Columbus& columbus,
                       const std::vector<std::string>& paths,
                       ExtractionScratch& scratch) {
  scratch.begin();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    scratch.paths.push_back(PathRef{paths[i], i % 4 == 0});
  }
  return columbus.extract_ranked(scratch).size();
}

TEST(ColumbusAlloc, DirectoryHeavyExtractionIsAllocationFreeAfterWarmup) {
  const Columbus columbus;
  ExtractionScratch scratch;
  const auto changesets = directory_heavy_paths();
  std::size_t tags = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& paths : changesets) {
      tags = run_ranked(columbus, paths, scratch);
    }
  }
  ASSERT_GT(tags, 0u);
  ASSERT_GE(scratch.dirs.size(), 300u);

  const std::uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 5; ++pass) {
    for (const auto& paths : changesets) {
      run_ranked(columbus, paths, scratch);
    }
  }
  const std::uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state extraction performed " << (after - before)
      << " heap allocations";
}

// The warm-reuse signal compares capacity_bytes() before and after an
// extraction, so growth of the directory cache must show in it.
TEST(ColumbusAlloc, FootprintCountsTheDirectoryCache) {
  ExtractionScratch scratch;
  std::size_t last = scratch.capacity_bytes();
  scratch.dirs.intern("/opt/vendor");
  EXPECT_GT(scratch.capacity_bytes(), last);
  last = scratch.capacity_bytes();
  scratch.dir_ids.reserve(1024);
  EXPECT_GE(scratch.capacity_bytes(), last + 1024 * sizeof(std::uint32_t));
  last = scratch.capacity_bytes();
  scratch.dir_ends.reserve(1024);
  EXPECT_GE(scratch.capacity_bytes(), last + 1024 * sizeof(std::uint32_t));
}

TEST(ColumbusAlloc, WarmScratchFootprintIsStable) {
  const Columbus columbus;
  ExtractionScratch scratch;
  for (const auto& cs : corpus().changesets) {
    run_ranked(columbus, cs, scratch);
  }
  const std::size_t warm = scratch.capacity_bytes();
  ASSERT_GT(warm, 0u);
  for (const auto& cs : corpus().changesets) {
    run_ranked(columbus, cs, scratch);
  }
  EXPECT_EQ(scratch.capacity_bytes(), warm);
}

}  // namespace
}  // namespace praxi::columbus
