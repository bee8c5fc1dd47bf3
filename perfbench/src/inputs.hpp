// Workload inputs: everything the benchmark feeds the service, generated
// from the run's seed before any timing starts.
//
// A run sees only generated inputs: the labeled training corpus (the
// paper-scale dirty corpus, 150 samples per application, paper §IV-B),
// the serving windows with their ground-truth labels, the pre-encoded
// report frames in send order, and the operator-feedback windows. The
// expensive parts — the corpus and the encoded frames — are cached per
// (workload, seed) under the benchmark's work directory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/model_snapshot.hpp"
#include "fs/changeset.hpp"

namespace praxi::cluster {}
namespace praxi::net {}
namespace praxi::obs {}
namespace praxi::pkg {}
namespace praxi::service {}

namespace perfbench {

// The service's namespaces, by their short names.
namespace cluster = praxi::cluster;
namespace columbus = praxi::columbus;
namespace common = praxi::common;
namespace core = praxi::core;
namespace fs = praxi::fs;
namespace net = praxi::net;
namespace obs = praxi::obs;
namespace pkg = praxi::pkg;
namespace service = praxi::service;

enum class Workload { kInstallWave, kLearnWhileServe };

/// Open-loop workloads spend this share of a run's measured seconds in the
/// open loop, the rest in the closed-loop capacity phase.
inline constexpr double kOpenShare = 0.7;
/// learn_while_serve gives its operator feedback during this share of the
/// open loop.
inline constexpr double kFeedbackShare = 0.8;

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// One report the generator sends.
struct FrameMeta {
  std::uint32_t agent = 0;
  std::uint64_t sequence = 0;
  std::uint32_t content = 0;  ///< index into Inputs::contents
  std::uint32_t connection = 0;
  double due_s = 0.0;  ///< open loop: send offset from the phase start
};

struct Inputs {
  Workload workload = Workload::kInstallWave;
  std::uint64_t seed = 0;
  core::LabelMode mode = core::LabelMode::kSingleLabel;
  /// Labeled corpus the model is trained on at set-up.
  std::vector<fs::Changeset> training;
  /// Serving windows; their labels are the ground truth (none for a
  /// noise-only window).
  std::vector<fs::Changeset> contents;
  /// Labeled windows for DiscoveryServer::learn_feedback, in call order
  /// (repeated from the start when the calls outnumber them).
  std::vector<fs::Changeset> feedback;
  /// Applications left out of training (learn_while_serve).
  std::vector<std::string> held_out;
  std::uint32_t agents = 0;
  std::uint32_t connections = 0;
  /// Reports in send order (open loop: ascending due time), and their
  /// encoded wire frames.
  std::vector<FrameMeta> frames;
  std::vector<std::string> wires;
  /// Open-loop aggregate rate in reports/s; 0 for closed-loop workloads.
  double open_rate = 0.0;
  /// Closed loop: reports each connection may have sent but not settled.
  std::uint32_t window = 0;
  /// learn_while_serve: learn_feedback calls per second during the first
  /// part of the open-loop phase.
  double feedback_rate = 0.0;
  /// learn_while_serve: when each learn_feedback call is due, as an offset
  /// from the open loop's start, ascending. The operators act independently
  /// of the server, so the calls arrive as a Poisson process of
  /// `feedback_rate`, not on a fixed period: a fixed period beats against
  /// the host loop's and makes the share of calls that wait for the state
  /// lock swing from run to run.
  std::vector<double> feedback_due_s;
};

/// Wire agent id of agent `index` ("agent-000123").
std::string agent_id(std::uint32_t index);
/// Inverse of agent_id; nullopt for anything else.
std::optional<std::uint32_t> parse_agent_id(std::string_view id);

/// Builds (or loads from `cache_dir`) the inputs of one run. `open_s` is
/// the length of the open-loop phase, which sets the frame count of the
/// open-loop workload.
Inputs make_inputs(Workload workload, std::uint64_t seed, double open_s,
                   const std::string& cache_dir);

}  // namespace perfbench
