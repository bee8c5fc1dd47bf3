// Sequential replay of a workload's frames through each layer's public
// function, one layer at a time, on one thread: the self time of every
// stage a report passes through, free of queueing and contention.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/praxi.hpp"
#include "host.hpp"
#include "inputs.hpp"

namespace perfbench {

struct ReplayPlan {
  /// Reports per DiscoveryServer::process batch (and per WAL commit), as
  /// observed in the traced run.
  double batch_reports = 1.0;
  /// learn_feedback wall times of the traced run, in call order, and the
  /// windows those calls carried (same order).
  std::vector<double> feedback_wall_s;
  std::vector<const fs::Changeset*> feedback_windows;
  /// The model the feedback calls started from.
  const core::Praxi* feedback_model = nullptr;
  /// Whether DiscoveryServer::process was timed directly in the run (the
  /// single-server topology); otherwise the replay times it.
  bool process_timed_in_run = false;
};

std::map<std::string, Metric> replay_layers(const Inputs& inputs,
                                            const core::Praxi& model,
                                            const ReplayPlan& plan,
                                            const std::string& work_dir);

}  // namespace perfbench
