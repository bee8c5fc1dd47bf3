// Fuzz harness: CSOAA learner snapshot ("PCS2") decoder.
#include "fuzz_entry.hpp"

#include "common/serialize.hpp"
#include "ml/online_learner.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto bytes = praxi::fuzz::as_view(data, size);
  try {
    praxi::ml::OnlineLearner::from_binary(bytes,
                                          praxi::ml::Reduction::kCsoaa);
  } catch (const praxi::SerializeError&) {
    // Expected for arbitrary bytes; anything else escapes and is a finding.
  }
  return 0;
}
